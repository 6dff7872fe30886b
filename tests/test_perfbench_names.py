"""Every span name the benchmark's per-layer metrics route on must name a
function or method of `osp`: a name that no longer resolves is never
recorded, so the metric built from it silently reads 0.

The names are read from `perfbench/layers.py`: its module-level names and
tuples, the `COUNTERS` keys, the `METHODS` expansions, the
`checks.<routine>` expansions of `CHECK_ROUTINES`, and the literals passed
to the span-view queries inside `layer_metrics`. The names that are stale
today are pinned, so a newly stale name fails and a fixed one forces the
set to shrink.

A name that resolves must also be an object `perfbench/spans.py` can wrap:
a plain function defined in its module, or a plain or static method. A
decorator such as `functools.lru_cache` on a public function turns it into
another kind of object that the tracer skips, which zeroes its metrics the
same way.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
QUERIES = {"calls", "self_s", "count", "peak_mb"}
STALE = {
    "skiparse.inverse_pattern_map",
    "attention.masked_dense_attention",
    "attention.pattern_allow_matrix",
    "ssp.gather_shards",
    "cli.build_full_report",
}


def _layers():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("layers")


def _dotted(value) -> list[str]:
    values = value if isinstance(value, (tuple, list)) else (value,)
    return [v for v in values if isinstance(v, str) and "." in v]


def _query_literals(source: str) -> set[str]:
    """String literals passed as the first argument of `v.<query>(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "v"
                and node.func.attr in QUERIES and node.args):
            first = node.args[0]
            items = first.elts if isinstance(first, ast.Tuple) else [first]
            names.update(c.value for c in items
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def _span_names() -> set[str]:
    layers = _layers()
    names = set()
    for attr, value in vars(layers).items():
        if attr.isupper():
            names.update(_dotted(value))
    names.update(layers.COUNTERS)
    names.update(f"{owner}.{m}" for owner, methods in layers.METHODS.items() for m in methods)
    names.update(f"checks.{routine}" for routine in layers.CHECK_ROUTINES)
    names.update(_query_literals((PERFBENCH / "layers.py").read_text()))
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"osp.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _wrappable(name: str) -> bool:
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"osp.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    raw = vars(owner)[attrs[-1]]
    if inspect.ismodule(owner):
        return inspect.isfunction(raw) and raw.__module__ == owner.__name__
    return inspect.isfunction(raw) or isinstance(raw, staticmethod)


def test_collects_names_from_every_source():
    # one name from each source: a constant, a tuple, COUNTERS, METHODS,
    # CHECK_ROUTINES and a query literal
    assert {"attention.skiparse_attention", "skiparse.pattern_map", "hif8.encode",
            "gridseq.IndexMap.invert", "checks.ssp_check", "mixflow.sde_step"} <= _span_names()


def test_stale_span_names_are_exactly_the_known_set():
    stale = {name for name in _span_names() if not _resolves(name)}
    assert stale == STALE


def test_every_resolving_span_name_is_a_kind_the_tracer_wraps():
    resolving = {name for name in _span_names() if _resolves(name)}
    assert "attention.qkv_projections" in resolving
    assert {name for name in resolving if not _wrappable(name)} == set()
