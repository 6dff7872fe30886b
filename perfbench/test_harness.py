"""Self-tests of the benchmark harness: self-time arithmetic, alias
wrapping by the tracer, clean uninstall, and the declared metric set.

  PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

import osp
import osp.attention
import osp.checks
import osp.gridseq
import osp.hif8
import osp.skiparse
import osp.ssp
from layers import COUNTERS, METHODS, MODULES, PACKAGE, PEAK_MEMORY, layer_metrics
from spans import Span, Tracer, package_namespaces, self_times

ROOT = Path(__file__).resolve().parent.parent


def _snapshot() -> dict[tuple[str, str], object]:
    snap = {}
    for ns in package_namespaces(PACKAGE):
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj):
                snap[(ns.__name__, attr)] = obj
    for attr in METHODS["gridseq.IndexMap"]:
        snap[("IndexMap", attr)] = osp.gridseq.IndexMap.__dict__[attr]
    return snap


@pytest.fixture
def tracer():
    t = Tracer(COUNTERS, PEAK_MEMORY)
    t.install(PACKAGE, MODULES, METHODS)
    try:
        yield t
    finally:
        t.uninstall()


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union 1..5 is covered once
        Span("c", 6.0, 7.0, 0, 0),
        Span("c.child", 6.2, 6.5, 3, 0),
        Span("other", 20.0, 21.5, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3, 1.5])


def test_self_times_sum_to_root_durations_for_proper_nesting():
    spans = [
        Span("root", 0.0, 4.0, -1, 0),
        Span("x", 0.5, 1.5, 0, 0),
        Span("y", 2.0, 3.5, 0, 0),
        Span("y.z", 2.5, 3.0, 2, 0),
    ]
    assert sum(self_times(spans)) == pytest.approx(4.0)


def test_tracer_wraps_every_alias(tracer):
    assert osp.checks.encode_array is osp.hif8.encode_array
    assert osp.checks.encode_array.__wrapped__ is not osp.checks.encode_array
    assert osp.pattern_map is osp.skiparse.pattern_map is osp.checks.pattern_map
    assert osp.ssp.orig_to_tsa is osp.skiparse.orig_to_tsa
    for ns in package_namespaces(PACKAGE):
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".") \
                    and not attr.startswith("_"):
                assert hasattr(obj, "__wrapped__"), f"{ns.__name__}.{attr} is not wrapped"


def test_tracer_records_nested_spans_with_counts(tracer):
    g = osp.gridseq.GridShape(1, 8, 8, 2)
    x = osp.gridseq.random_tensor(1, g.seq_len, 4, 0)
    tracer.spans.clear()
    tracer.op = 0
    osp.attention.skiparse_attention(x, g, osp.skiparse.SparsePattern.TOKEN_WISE)
    names = [s.name for s in tracer.spans]
    assert names[0] == "attention.skiparse_attention"
    dense = [s for s in tracer.spans if s.name == "attention.dense_attention"]
    assert len(dense) == 1 and tracer.spans[dense[0].parent].name == names[0]
    expected = osp.attention.flop_report(g, osp.skiparse.SparsePattern.TOKEN_WISE, 4)
    assert dense[0].counts["macs"] == expected.sparse_flops
    assert dense[0].counts["peak_bytes"] > 0
    applies = [s for s in tracer.spans if s.name == "gridseq.IndexMap.apply"]
    assert applies and all(tracer.spans[s.parent].name == names[0] for s in applies)


def test_uninstall_restores_every_alias():
    before = _snapshot()
    t = Tracer(COUNTERS, PEAK_MEMORY)
    t.install(PACKAGE, MODULES, METHODS)
    assert _snapshot() != before
    t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not hasattr(osp.hif8.encode_array, "__wrapped__")
    assert not hasattr(osp.gridseq.IndexMap.apply, "__wrapped__")


def test_layer_metrics_match_declared_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics([], [1.0], 1.0, 1.0)) == declared
