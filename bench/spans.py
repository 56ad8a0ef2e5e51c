"""In-memory span tracer for the per-layer breakdown.

``Tracer.install`` wraps the public functions of each convint module at
every name its callers resolve them by (``convint.cli.solve`` and
``convint.solver.solve`` are the same function, so both names are
patched), plus the ``cell_moments_batch`` method on the weight classes.
Each call records a span (name, start, end, parent, instance). Self time
is a span's duration minus the part of it its children cover. No convint
file changes; ``uninstall`` restores every patched name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "problem", "algebra", "kernels", "weights", "nonlinearities",
          "discretization", "solver")
METHODS = {"weights": {"cell_moments_batch": ("ExpSqrtWeight", "RationalWeight",
                                              "TabulatedExcessWeight")}}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: int


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(k)
    out = []
    for k, s in enumerate(spans):
        covered, edge = 0.0, s.start
        for c in sorted(children[k], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, edge), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans and per-result counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.instance = -1
        self._stack = []
        self._patched = []

    def reset(self):
        self.spans, self.counters, self._stack = [], {}, []

    def count(self, key, value, reduce=lambda a, b: a + b):
        self.counters[key] = reduce(self.counters[key], value) if key in self.counters else value

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.instance)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def install(self, hooks=None):
        """Wrap every public function of every layer; ``hooks`` maps a span
        name to ``on_result(tracer, args, result)``."""
        hooks = hooks or {}
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "convint" or name.startswith("convint.")) and m is not None]
        for layer in LAYERS:
            module = importlib.import_module(f"convint.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, hooks.get(name))
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, key, fn))
                            setattr(mod, key, traced)
            for method, classes in METHODS.get(layer, {}).items():
                for cls_name in classes:
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[method]
                    self._patched.append((cls, method, fn))
                    setattr(cls, method, self.wrap(f"{layer}.{method}", fn,
                                                   hooks.get(f"{layer}.{method}")))

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched = []


def span_totals(spans, selfs):
    """{name: (calls, total seconds, self seconds)}; a span nested inside
    another of the same name adds to calls and self time but not to the
    total, so recursion is not counted twice."""
    out = {}
    for k, s in enumerate(spans):
        outer = True
        p = s.parent
        while p >= 0:
            if spans[p].name == s.name:
                outer = False
                break
            p = spans[p].parent
        calls, total, self_s = out.get(s.name, (0, 0.0, 0.0))
        out[s.name] = (calls + 1, total + (s.end - s.start if outer else 0.0),
                       self_s + selfs[k])
    return out


def count_within(spans, name, ancestor) -> int:
    """Spans called ``name`` that have an ancestor called ``ancestor``."""
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        n += p >= 0
    return n
