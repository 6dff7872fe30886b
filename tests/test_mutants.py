"""Mutation matrix for report-all: each row swaps one function of the kit
for a wrong one and expects `report-all --seed 7` to exit 1 and to name
only checks of the sections meant to catch it.

A row patches its dotted target and, where `osp.checks` imported the same
object by name, that binding too, then runs report-all in-process. A
mutant that report-all does not catch yet is a strict xfail that names the
ROADMAP item meant to catch it, so the row fails once that item lands
until its mark is removed. Reference: DeMillo, Lipton and Sayward, "Hints
on test data selection" (IEEE Computer, 1978).
"""

import pydoc

import numpy as np
import pytest

from osp import checks
from osp.cli import main
from osp.gridseq import SequenceTensor


def _escapes(item: int):
    return pytest.mark.xfail(strict=True, reason=f"report-all exits 0; ROADMAP item {item}")


def _unnormalised(softmax):
    def mutant(scores, allowed, shift):
        weights, _ = softmax(scores, allowed, shift)
        return weights, np.ones((*weights.shape[:-1], 1))
    return mutant


# (dotted target, mutant built from the real object, sections whose checks must fail)
MUTANTS = [
    pytest.param("osp.mixflow.ode_step", lambda real: lambda x, t, dt, proc: x,
                 ["sections.sampler"], id="identity-ode-step", marks=_escapes(3)),
    pytest.param("osp.mixflow.OuProcess.var_at", lambda real: lambda self, t: 1.0,
                 ["sections.sampler"], id="var-at-one", marks=_escapes(3)),
    pytest.param("osp.mixflow.OuProcess.mean_at", lambda real: lambda self, t: 0.0,
                 ["sections.sampler"], id="mean-at-zero", marks=_escapes(3)),
    pytest.param("osp.hif8.dequantize",
                 lambda real: lambda q: SequenceTensor(real(q).data * 1.01),
                 ["sections.quantizer"], id="dequantize-times-1.01", marks=_escapes(4)),
    pytest.param("osp.skiparse.reachability_hops", lambda real: lambda g: 2,
                 ["sections.reachability"], id="reachability-hops-two", marks=_escapes(5)),
    pytest.param("osp.attention._softmax_rows", _unnormalised,
                 ["sections.attention"], id="softmax-row-sums-one", marks=_escapes(7)),
]


@pytest.mark.parametrize("target,mutant,sections", MUTANTS)
def test_report_all_fails_the_mutant(target, mutant, sections, monkeypatch, capsys):
    owner_path, _, name = target.rpartition(".")
    owner = pydoc.locate(owner_path)
    real = getattr(owner, name)
    replacement = mutant(real)
    monkeypatch.setattr(owner, name, replacement)
    if getattr(checks, name, None) is real:
        monkeypatch.setattr(checks, name, replacement)
    code = main(["report-all", "--seed", "7"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("FAIL: ") and err.count("\n") == 1, err
    failed = err.removeprefix("FAIL: ").rstrip("\n").split(", ")
    caught = {s: [f for f in failed if f.startswith(s + ".")] for s in sections}
    assert all(caught.values()), caught
    assert sum(map(len, caught.values())) == len(failed), failed
