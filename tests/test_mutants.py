"""Mutation matrix for report-all: each row swaps one function of the kit
for a wrong one and expects `report-all --seed 7` to exit 1.

A row patches its dotted target and, where `osp.checks` imported the same
object by name, that binding too, then runs report-all in-process with the
layout, switch-plan and projection memos cleared before and after, so no
row needs to clear a memo itself. A caught row pins its exact FAIL line. A
mutant that report-all does not catch yet is a strict xfail that names the
ROADMAP item meant to catch it and the sections whose checks should fail,
so the row fails once that item lands until its mark is removed and its
exact line pinned. Reference: DeMillo, Lipton and Sayward, "Hints on test
data selection" (IEEE Computer, 1978).
"""

import math
import pydoc
import re

import numpy as np
import pytest

from oracles import hif8_value_table
from osp import attention, checks, hif8, skiparse, ssp
from osp.cli import main
from osp.gridseq import IndexMap, SequenceTensor
from osp.mixflow import SamplerSchedule
from osp.skiparse import SparsePattern

MEMOS = (skiparse._build_layout_map, ssp._switch_plan, attention._projections,
         attention._layout_rows)


def _caught(target, mutant, *names, id):
    """A row report-all catches: stderr is exactly one FAIL line of `names`."""
    return pytest.param(target, mutant, "FAIL: " + ", ".join(names) + "\n", id=id)


def _escapes(target, mutant, sections, item, id):
    """A row report-all misses until ROADMAP item `item` lands, and whose
    failures must then all lie in `sections`."""
    return pytest.param(target, mutant, sections, id=id, marks=pytest.mark.xfail(
        strict=True, reason=f"report-all exits 0; ROADMAP item {item}"))


def _ssp_cases(*checks):
    return [f"sections.ssp.cases.{i}.{c}" for i in range(3) for c in checks]


def _unnormalised(softmax):
    def mutant(scores, shift):
        weights, _ = softmax(scores, shift)
        return weights, np.ones((*weights.shape[:-1], 1))
    return mutant


def _double_traffic(all_to_all):
    def mutant(shape, log):
        # the right buffers arrive, but every one is shipped twice
        received = all_to_all(shape, ssp.CommLog())
        log.record("all_to_all", 2 * math.prod(shape[1:]))
        return received
    return mutant


def _ranks_reversed(exchange_map):
    def mutant(n, lead, seq):
        # every receiver gets the right amount of data, but rank n-1-r's
        m = exchange_map(n, lead, seq)
        return IndexMap(m.in_batch, m.in_seq, m.src.reshape(n, -1)[::-1].reshape(m.src.shape))
    return mutant


# the HiF8 value table built from the tests' own taper widths
_TABLE = hif8_value_table({e: 3 if -3 <= e <= 3 else 2 if e in (-5, -4, 4, 5, 6) else 1
                           for e in range(-22, 16)})


def _tie_to_odd(encode_array):
    # 224 is the midpoint of 192 and 256; send it to whichever code is odd
    odd = next(c for c in (_TABLE.index(192.0), _TABLE.index(256.0)) if c % 2)
    return lambda x: np.where(np.asarray(x) == 224.0, odd, encode_array(x)).astype(np.uint8)


def _lower_neighbour_up(encode_array):
    # the float just below the midpoint of codes 200 and 201 goes to 201
    below = np.nextafter((_TABLE[200] + _TABLE[201]) / 2, -np.inf)
    return lambda x: np.where(np.asarray(x) == below, 201, encode_array(x)).astype(np.uint8)


def _first_token_amax(quantize_tensor):
    def mutant(x, mode):
        # a scale taken from the first token alone changes with the layout's token order
        amax = float(np.max(np.abs(x.data[:, 0, :])))
        scale = {"forward": 15.0, "backward": 224.0}[mode] / (amax + 1e-12)
        return hif8.QuantizedTensor(SequenceTensor(hif8.encode_array(x.data * scale)),
                               scale, mode, amax)
    return mutant


def _toward_zero(quantize_tensor):
    def mutant(x, mode):
        # the largest-magnitude code not beyond each scaled value (VALUES ascends by code)
        q = quantize_tensor(x, mode)
        scaled = x.data * q.scale
        codes = np.where(scaled < 0, np.searchsorted(hif8.VALUES, scaled, "left"),
                         np.searchsorted(hif8.VALUES, scaled, "right") - 1)
        return hif8.QuantizedTensor(SequenceTensor(codes.astype(np.uint8)), q.scale, mode, q.amax)
    return mutant


def _drawing_rollout(mixed_rollout):
    def mutant(x0, schedule, proc, rng=None):
        # the same snapshots, but every ODE step also draws a variate it never uses
        result = mixed_rollout(x0, schedule, proc, rng)
        if rng is not None:
            rng.standard_normal(schedule.num_steps - schedule.sde_steps)
        return result
    return mutant


def _louder_noise(sde_step):
    def mutant(x, t, dt, proc, rng):
        # the right drift, but every variate scaled by 1.01
        class Louder:
            def standard_normal(self, shape):
                return 1.01 * rng.standard_normal(shape)
        return sde_step(x, t, dt, proc, Louder())
    return mutant


def _pad_before(pad_grid):
    def mutant(g):
        # pads h and w to the same sizes as pad_grid, but ahead of the real rows and columns
        pg = pad_grid(g)
        rows = np.arange(pg.padded.h) >= pg.padded.h - g.h
        cols = np.arange(pg.padded.w) >= pg.padded.w - g.w
        mask = np.tile((rows[:, None] & cols[None, :]).reshape(-1), g.t)
        object.__setattr__(pg, "mask", mask)
        object.__setattr__(pg, "embedding", np.flatnonzero(mask))
        return pg
    return mutant


def _pads_counted(layout_rows):
    def mutant(pg, pattern, batch):
        # the right rows, but every pad token counted into its row's length
        fwd, back, lengths = layout_rows(pg, pattern, batch)
        return fwd, back, np.full_like(lengths, fwd.out_seq)
    return mutant


def _later_frames_real(pad_grid):
    def mutant(g):
        # pads the first frame only; every token of a later frame counts as real
        pg = pad_grid(g)
        mask = pg.mask.copy()
        mask[pg.padded.h * pg.padded.w:] = True
        object.__setattr__(pg, "mask", mask)
        object.__setattr__(pg, "embedding", np.flatnonzero(mask))
        return pg
    return mutant


def _raises(exc):
    def mutant(real):
        def raising(*args, **kwargs):
            raise exc
        return raising
    return mutant


MUTANTS = [
    _caught("osp.ssp.all_to_all", _double_traffic,
            *_ssp_cases("one_shard_per_event", "volume_ratio_one_quarter"), id="double-traffic"),
    _caught("osp.ssp.exchange_map", _ranks_reversed,
            *_ssp_cases("switches_match_oracle"), id="ranks-reversed"),
    _caught("osp.checks.build_layer_schedule",
            lambda real: lambda n, f: [SparsePattern.TOKEN_WISE] * n,
            "sections.layer_schedule.full_ends_around_alternating_tsa_gsa", id="all-tsa-schedule"),
    _caught("osp.checks.encode_array", _tie_to_odd,
            "sections.hif8_format.ties_to_even_code", id="tie-to-odd"),
    _caught("osp.checks.encode_array", _lower_neighbour_up,
            "sections.hif8_format.nearest_on_both_sides_of_every_midpoint",
            "sections.hif8_format.encode_monotone_and_saturating", id="lower-neighbour-up"),
    _caught("osp.hif8.quantize_tensor", _first_token_amax,
            "sections.quantized_attention_probe.input_error_pattern_independent",
            id="first-token-amax"),
    _caught("osp.checks.mixed_rollout", _drawing_rollout,
            "sections.sampler.no_sde_steps_is_pure_ode", id="rollout-draws-on-ode-steps"),
    _caught("osp.checks.pad_grid", _pad_before,
            "sections.anyres.subsequence_stable_across_resolutions", id="pad-before"),
    _caught("osp.attention.dense_attention",
            lambda real: lambda q, k, v, lengths=None: real(q, k, v),
            "sections.anyres.pad_content_independent", id="lengths-ignored"),
    _caught("osp.attention._layout_rows", _pads_counted,
            *(f"sections.attention.cases.{i}.skiparse_matches_masked_dense_oracle"
              for i in (6, 7)), "sections.anyres.pad_content_independent",
            id="lengths-count-pads"),
    _caught("osp.skiparse.reachability_hops", _raises(IndexError("mutant")),
            "sections.reachability raised IndexError: mutant", id="reachability-raises"),
    _caught("osp.ssp.ssp_pattern_switch",
            _raises(ssp.ProtocolError("shard seq 4 != subsequence length 0")),
            "sections.ssp raised ProtocolError: shard seq 4 != subsequence length 0",
            id="switch-raises-protocol-error"),
    _caught("osp.mixflow.ode_step", lambda real: lambda x, t, dt, proc: x,
            "sections.sampler.trajectory_matches_exact_steps", id="identity-ode-step"),
    _caught("osp.mixflow.OuProcess.var_at", lambda real: lambda self, t: 1.0,
            "sections.sampler.trajectory_matches_exact_steps", id="var-at-one"),
    _caught("osp.mixflow.OuProcess.mean_at", lambda real: lambda self, t: 0.0,
            "sections.sampler.trajectory_matches_exact_steps", id="mean-at-zero"),
    _caught("osp.mixflow.uniform_schedule",
            lambda real: lambda n, sde_steps=0: SamplerSchedule(
                np.linspace(1.01, 0.0, n + 1), sde_steps),
            "sections.sampler.trajectory_matches_exact_steps", id="time-grid-from-1.01"),
    _caught("osp.mixflow.sde_step", _louder_noise,
            "sections.sampler.trajectory_matches_exact_steps", id="sde-noise-times-1.01"),
    _escapes("osp.hif8.dequantize",
             lambda real: lambda q: SequenceTensor(real(q).data * 1.01),
             ["quantizer"], 4, id="dequantize-times-1.01"),
    _escapes("osp.hif8.quantize_tensor", _toward_zero,
             ["quantizer"], 4, id="quantize-toward-zero"),
    _escapes("osp.skiparse.reachability_hops", lambda real: lambda g: 2,
             ["reachability"], 5, id="reachability-hops-two"),
    _escapes("osp.attention.flop_report",
             lambda real: lambda g, pattern, chan=1: attention.FlopReport(
                 2 * g.seq_len ** 2 * chan, 2 * g.seq_len ** 2 * chan // g.k ** 2),
             ["flops"], 6, id="flop-report-from-formula"),
    _escapes("osp.attention._softmax_rows", _unnormalised,
             ["attention"], 7, id="softmax-row-sums-one"),
    _escapes("osp.attention.dense_attention",
             lambda real: lambda q, k, v, lengths=None: real(
                 SequenceTensor(q.data / math.sqrt(q.chan)), k, v, lengths),
             ["attention"], 7, id="score-scale-one-over-c"),
    _escapes("osp.anyres.pad_grid", _later_frames_real,
             ["attention", "anyres"], 7, id="later-frames-real"),
]


@pytest.mark.parametrize("target,mutant,expected", MUTANTS)
def test_report_all_fails_the_mutant(target, mutant, expected, monkeypatch, capsys):
    owner_path, _, name = target.rpartition(".")
    owner = pydoc.locate(owner_path)
    real = getattr(owner, name)
    replacement = mutant(real)
    monkeypatch.setattr(owner, name, replacement)
    if getattr(checks, name, None) is real:
        monkeypatch.setattr(checks, name, replacement)
    for memo in MEMOS:
        memo.cache_clear()
    try:
        code = main(["report-all", "--seed", "7"])
    finally:
        for memo in MEMOS:
            memo.cache_clear()
    err = capsys.readouterr().err
    assert code == 1, err
    if isinstance(expected, str):
        assert err == expected
    else:
        assert err.startswith("FAIL: ") and err.count("\n") == 1, err
        failed = err.removeprefix("FAIL: ").rstrip("\n").split(", ")
        assert all(f.startswith(tuple(f"sections.{s}." for s in expected)) for f in failed), err


def _check_name(path: str) -> str:
    """A FAIL path with its case and grid indices dropped."""
    return re.sub(r"\.\d+(?=\.)", "", path)


# the named checks some caught row flips; a row that flips another adds it here
COVERED = {
    "sections.anyres.pad_content_independent",
    "sections.anyres.subsequence_stable_across_resolutions",
    "sections.attention.cases.skiparse_matches_masked_dense_oracle",
    "sections.hif8_format.encode_monotone_and_saturating",
    "sections.hif8_format.nearest_on_both_sides_of_every_midpoint",
    "sections.hif8_format.ties_to_even_code",
    "sections.layer_schedule.full_ends_around_alternating_tsa_gsa",
    "sections.quantized_attention_probe.input_error_pattern_independent",
    "sections.sampler.no_sde_steps_is_pure_ode",
    "sections.sampler.trajectory_matches_exact_steps",
    "sections.ssp.cases.one_shard_per_event",
    "sections.ssp.cases.switches_match_oracle",
    "sections.ssp.cases.volume_ratio_one_quarter",
}


def test_caught_rows_flip_exactly_the_covered_checks():
    flipped = {_check_name(path) for row in MUTANTS if isinstance(row.values[2], str)
               for path in row.values[2].removeprefix("FAIL: ").rstrip("\n").split(", ")
               if " raised " not in path}
    assert flipped == COVERED
    report = checks.build_full_report(7)
    assert report["pass"]
    named = {_check_name(path) for path, _ in checks.check_paths(report)}
    assert len(named) == 43 and COVERED <= named
