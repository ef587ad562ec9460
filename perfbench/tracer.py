"""Outside-in tracer for the fdzring modules.

The tracer changes no library source.  ``install`` rebinds the public
functions of every loaded ``fdzring.*`` module to timing wrappers, in each
module namespace (and the package namespace) that holds the same object,
plus a few methods on the library classes.  ``uninstall`` puts every
original object back, and ``restored`` confirms that it did.

Spans live in memory as ``[name, start, end, parent]`` lists while a run
is traced; ``take`` hands the batch's spans over and clears the buffer.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Subgroup methods reported together as the ``groups.subgroup`` layer.
SUBGROUP_METHODS = ("sum", "intersect", "saturate", "express", "presentation")


def _bits(value) -> int:
    """Largest entry bit length in an IntMatrix, a SmithDecomposition or a
    nested sequence of ints."""
    data = getattr(value, "data", None)
    if data is not None:
        value = data
    elif hasattr(value, "uinv"):
        return max(_bits(getattr(value, f)) for f in ("u", "v", "d", "uinv", "vinv"))
    best = 0
    for row in value:
        if isinstance(row, int):
            best = max(best, row.bit_length())
        else:
            for x in row:
                if x:
                    best = max(best, abs(x).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._installed = False

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name, fn, observe=None):
        span = self._span

        if observe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    result = span(name, fn, *args, **kwargs)
                except BaseException as exc:
                    observe(args, None, exc)
                    raise
                observe(args, result, None)
                return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cached(self, name, fn):
        """Wrap an ``lru_cache`` object; a call is a hit when the cache's
        hit count rises across it."""
        counts, span = self.counts, self._span

        def wrapper(*args, **kwargs):
            before = fn.cache_info().hits
            result = span(name, fn, *args, **kwargs)
            key = "hits" if fn.cache_info().hits > before else "misses"
            counts[f"{name}.cache_{key}"] += 1
            return result
        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- observers for layer-specific counters -------------------------------

    def _observer(self, name):
        counts, maxima = self.counts, self.maxima
        if name == "intlinalg.smith":
            def observe(args, result, exc):
                a = args[0]
                maxima["intlinalg.smith.max_cells"] = max(
                    maxima["intlinalg.smith.max_cells"], a.rows * a.cols
                )
                if result is not None:
                    maxima["intlinalg.smith.max_bits"] = max(
                        maxima["intlinalg.smith.max_bits"], _bits(a), _bits(result)
                    )
            return observe
        if name == "intlinalg.solve_congruences":
            def observe(args, result, exc):
                maxima["intlinalg.solve_congruences.max_rows"] = max(
                    maxima["intlinalg.solve_congruences.max_rows"], len(args[0])
                )
            return observe
        if name == "classify.indecomposable_factors":
            def observe(args, result, exc):
                if exc is not None and type(exc).__name__ == "FactorizationIncomplete":
                    counts["classify.factorization_incomplete.count"] += 1
            return observe
        if name == "eqcheck.iso_search":
            def observe(args, result, exc):
                if result is not None and result.reason == "search budget exhausted":
                    counts["eqcheck.iso_search.budget_exhausted"] += 1
            return observe
        if name == "deform.verify_sixterm":
            def observe(args, result, exc):
                if result is not None and result.status == "unknown":
                    counts["deform.verify_sixterm.unknown"] += 1
            return observe
        if name in ("fomc.defined_set", "fomc.evaluate"):
            def observe(args, result, exc):
                order = args[0].order or 0
                maxima["fomc.carrier_max"] = max(maxima["fomc.carrier_max"], order)
            return observe
        return None

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, new):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        self._patched = []
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name.startswith("fdzring.") and mod is not None
        }
        namespaces = list(modules.values()) + [sys.modules["fdzring"]]
        replacements: dict[int, object] = {}
        for modname, mod in sorted(modules.items()):
            short = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                name = f"{short}.{attr}"
                if hasattr(obj, "cache_info"):
                    replacements[id(obj)] = (obj, self._cached(name, obj))
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(name, obj, self._observer(name)))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        rings = modules.get("fdzring.rings")
        groups = modules.get("fdzring.groups")
        if rings is not None:
            cls = rings.FdzRing
            self._set(cls, "__init__", self._wrap("rings.fdzring_init", cls.__dict__["__init__"]))
            self._set(cls, "mul", self._counted("rings.mul.calls", cls.__dict__["mul"]))
        if groups is not None:
            cls = groups.Subgroup
            for method in SUBGROUP_METHODS:
                if method in cls.__dict__:
                    self._set(cls, method, self._wrap("groups.subgroup", cls.__dict__[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """True when every patched attribute holds its original object."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self._patched)

    # -- results -------------------------------------------------------------

    def take(self):
        """Hand over the recorded spans and counters and start afresh."""
        spans, counts, maxima = self.spans, dict(self.counts), dict(self.maxima)
        self.spans, self._stack = [], []
        self.counts.clear()
        self.maxima.clear()
        return spans, counts, maxima


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), covered in zip(spans, child_time):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return dict(out)
