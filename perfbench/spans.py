"""Outside-in span recorder for a Python package.

The tracer replaces the public functions of the package's modules, and a
few named methods, with wrappers that record one span per call: name,
start, end, parent span and op id. Every namespace that holds the same
function object (a module that did `from .x import f`, or the package
itself) gets the same wrapper, so a call through any alias is recorded.
`uninstall` puts every original object back, so code measured after it
runs unwrapped.

Spans stay in memory in one list; a span's parent is its index there.
Counters attached to a span name turn the call's arguments and result
into counts (elements moved, MACs), so counts are taken at the same
boundary as the time. Names listed in `peak_memory` also record the
tracemalloc peak of the call when no outer call is already tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable

SETUP_OP = -1  # op id of spans recorded outside the timed ops

Counter = Callable[[tuple, dict, object], dict]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def package_namespaces(package: str) -> list[ModuleType]:
    """The package module and every loaded submodule of it."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records spans around the public functions of a package's modules."""

    def __init__(self, counters: dict[str, Counter] | None = None,
                 peak_memory: Iterable[str] = ()) -> None:
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._counters = dict(counters or {})
        self._peak = frozenset(peak_memory)
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter = self._counters.get(name)
        track_peak = name in self._peak
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            own_tracing = track_peak and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if own_tracing:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, package: str, modules: Iterable[str],
                methods: dict[str, tuple[str, ...]] | None = None) -> None:
        """Wrap the public functions defined in each named module of the
        package, at every alias, and the listed methods of its classes
        ({"module.Class": ("method", ...)})."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[Callable, Callable] = {}
        for short in modules:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for ns in package_namespaces(package):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for qualified, names in (methods or {}).items():
            short, _, cls_name = qualified.partition(".")
            cls = getattr(importlib.import_module(f"{package}.{short}"), cls_name)
            for name in names:
                raw = cls.__dict__[name]
                label = f"{qualified}.{name}"
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(label, raw.__func__))
                else:
                    new = self.wrap(label, raw)
                self._patches.append((cls, name, raw))
                setattr(cls, name, new)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()
