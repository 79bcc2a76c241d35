"""Per-layer tracing of chromsym, installed at run time from outside the package.

A layer is one module of ``chromsym``.  :meth:`Tracer.install` replaces every
public function and every method of the classes a layer defines with a
wrapper, and rebinds the wrapped name wherever another module imported it
with ``from .x import y``.  Nothing in ``chromsym`` is edited.

What a wrapper records:

- ``<layer>.calls``: every call into the layer, including calls a layer makes
  to itself.
- A span when a call enters the layer from another layer.  A call from the
  same layer is part of the enclosing span, so recursion and helpers cost
  one counter increment, not two clock reads.
- ``<layer>.self_s``: the time of the layer's spans minus the time of the
  spans of other layers inside them.
- ``<layer>.total_s``: the time of the layer's outermost spans, children
  included; an engine's share of a suite, as a profiler's cumulative column
  shows it.
- Work counters (``WORK``) read from a call's arguments or result.

``qpoly`` gets the same spans as every other layer, although its arithmetic
is most of the calls (about 1.5 million on ``egs-n6``).  Counting those calls
without a span would hide the arithmetic inside whichever layer called it,
and the arithmetic is what a change to the exact core would move.  The cost
shows in ``trace.overhead``.

Generators (``gfunctions.bounded_permutations``) count the items they yield;
their time is charged to whoever consumes them, which is their own layer.

Spans are aggregated per layer in memory and read once at exit with
:meth:`Tracer.snapshot`; one record per span would cost more memory and time
than the work it describes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "verify",
    "modular",
    "transition",
    "gfunctions",
    "ptableaux",
    "coloring",
    "orientations",
    "symfunc",
    "partitions",
    "hessenberg",
    "qpoly",
)

# Methods never wrapped: attribute protocol and construction hooks.
_SKIP_METHODS = frozenset(
    {
        "__setattr__",
        "__delattr__",
        "__getattribute__",
        "__getattr__",
        "__new__",
        "__init_subclass__",
        "__class_getitem__",
    }
)


def _basis_change(target: str):
    return lambda result, args: int(args[0].basis != target)


def _one(result, args) -> int:
    return 1


# "<layer>.<qualified name>" -> (counter, amount computed from (result, args)).
WORK = {
    "modular.reduce_to_paths": ("modular.reduce_calls", _one),
    "modular.certificate_json": ("modular.cert_terms", lambda r, a: len(r["terms"])),
    "modular.law_defect": ("modular.law_defects", _one),
    "transition.c_poly": ("transition.c_poly_calls", _one),
    "ptableaux.enumerate_pt": ("ptableaux.fillings", lambda r, a: len(r)),
    "ptableaux.enumerate_pa": ("ptableaux.fillings", lambda r, a: len(r)),
    "coloring.content_coefficient": ("coloring.colorings", lambda r, a: sum(r.coeffs)),
    "orientations.enumerate_ao": ("orientations.acyclic", lambda r, a: len(r)),
    "symfunc.SymFun.__mul__": (
        "symfunc.products",
        lambda r, a: int(type(a[1]).__name__ == "SymFun"),
    ),
    "symfunc.SymFun.to_e": ("symfunc.basis_changes", _basis_change("e")),
    "symfunc.SymFun.to_s": ("symfunc.basis_changes", _basis_change("s")),
    "symfunc.SymFun.to_m": ("symfunc.basis_changes", _basis_change("m")),
    "qpoly.QRat.__init__": ("qpoly.qrat_new", _one),
    "qpoly.poly_gcd": ("qpoly.qrat_gcd", _one),
    "qpoly.QPoly.__divmod__": ("qpoly.divmod", _one),
    "qpoly.QPoly.__mul__": ("qpoly.mul", _one),
    "qpoly.QPoly.__rmul__": ("qpoly.mul", _one),
    "hessenberg.edges": ("hessenberg.edges_calls", _one),
}

# Counters that items yielded by a generator add to.
YIELDS = {"gfunctions.bounded_permutations": "gfunctions.perms"}

WORK_COUNTERS = tuple(sorted({name for name, _ in WORK.values()} | set(YIELDS.values())))


class Tracer:
    """Wraps the layers of one imported ``chromsym`` and aggregates what they do."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.total_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.work: Counter = Counter({name: 0 for name in WORK_COUNTERS})
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [layer, seconds spent in child-layer spans]
        self._open: Counter = Counter()  # spans of each layer now on the stack
        self._caches: dict[str, list] = {layer: [] for layer in LAYERS}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # --- wrappers ---------------------------------------------------------

    def _spanning(self, layer: str, fn, work):
        calls, stack, self_s, total = self.calls, self._stack, self.self_s, self.work
        total_s, open_spans = self.total_s, self._open
        clock = time.perf_counter
        counter, amount = work if work is not None else (None, None)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                open_spans[layer] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    open_spans[layer] -= 1
                    self_s[layer] += elapsed - frame[1]
                    if not open_spans[layer]:
                        total_s[layer] += elapsed
                    if stack:
                        stack[-1][1] += elapsed
                    else:
                        tracer.top_level_s += elapsed
            if counter is not None:
                total[counter] += amount(result, args)
            return result

        return wrapper

    def _yielding(self, layer: str, fn, counter: str):
        calls, total = self.calls, self.work

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            for item in fn(*args, **kwargs):
                total[counter] += 1
                yield item

        return wrapper

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        if key in YIELDS:
            wrapped = self._yielding(layer, fn, YIELDS[key])
        else:
            wrapped = self._spanning(layer, fn, WORK.get(key))
        return functools.wraps(fn)(wrapped)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the imported ``chromsym``; call once, after import."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"chromsym.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
                elif _defined_in(obj, module.__name__):
                    if hasattr(obj, "cache_info"):
                        self._caches[layer].append(obj)
                    originals[id(obj)] = self._wrap(layer, name, obj)
        for name, module in list(sys.modules.items()):
            if name != "chromsym" and not name.startswith("chromsym."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        for layer, caches in self._caches.items():
            self._cache_base[layer] = _cache_totals(caches)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, value in list(vars(cls).items()):
            if name in _SKIP_METHODS or (name.startswith("_") and not name.endswith("__")):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, name, type(value)(self._wrap(layer, qualname, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, name, self._wrap(layer, qualname, value))

    # --- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer totals: calls, seconds, cache deltas, and work counters."""
        out: dict[str, float | int] = {}
        for layer in LAYERS:
            hits, misses = _cache_totals(self._caches[layer])
            base_hits, base_misses = self._cache_base.get(layer, (0, 0))
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.total_s"] = self.total_s[layer]
            out[f"{layer}.cache_hits"] = hits - base_hits
            out[f"{layer}.cache_misses"] = misses - base_misses
        out.update(self.work)
        return out


def _defined_in(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module_name


def _cache_totals(caches) -> tuple[int, int]:
    infos = [fn.cache_info() for fn in caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
