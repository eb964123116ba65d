"""Outside-in per-module tracer for `adic-kit run`, and its aggregation.

Run as a child process, in place of `python -m adickit`:

    python3 perfbench/tracer.py SPANS.json SCRIPT.adk

It imports adickit, wraps every public function and every public method of
each module in `LAYERS` (names starting with `_`, dunders included, are
left alone), rebinds each wrapped function in every adickit module that
imported it by name, runs `adickit.cli.main(["run", SCRIPT])`, and at exit
writes the recorded spans and work counters to SPANS.json.

A span is (name, layer, start, end, parent).  A call into a layer from the
same layer records no span of its own, so each layer entry is counted once
and self time is never counted twice.  Generator functions are not wrapped:
their work happens while the caller iterates, so it is charged to the
caller.  The counters only count calls into public functions and read their
arguments and return values.  While a counter hook runs, every wrapper calls
straight through, so what a hook calls (an element's `key()`, say) records
no span and is charged to no layer.

`aggregate` turns a dump into per-layer `calls`, `self_s` (span time minus
child spans, which are always in another layer) and `total_s` (spans with no
enclosing span of the same layer).  It imports nothing from adickit, so the
benchmark's timing process can use it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "finiterings", "infinitesimal", "groebner", "linalg",
          "poly", "tate", "padics", "localization", "differentials",
          "wittrobba", "norms")

COUNTERS = ("finiterings.rings_built", "finiterings.rings_distinct",
            "finiterings.ideals_generated", "finiterings.ideals_distinct",
            "infinitesimal.nil_ideals", "infinitesimal.pd_structures",
            "infinitesimal.point_candidates", "infinitesimal.points",
            "groebner.syzygy_calls", "differentials.cotangent_calls",
            "linalg.cells")

_LINALG_SHAPES = {
    # function or method -> (rows, cols) of the matrix it is fed
    "rank": lambda a: (len(a[0]), len(a[0][0]) if a[0] else 0),
    "nullspace": lambda a: (len(a[0]), a[1]),
    "kernel_of_map": lambda a: (a[1], len(a[0])),
    "solve": lambda a: (len(a[0]), len(a[0][0]) if a[0] else 0),
    # the de Rham and gluing checks eliminate through these
    "span_in_low_block": lambda a: (len(a[0]), a[2]),
    "RowSpace.insert": lambda a: (1, len(a[1])),
    "RowSpace.contains": lambda a: (1, len(a[1])),
}


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.muted = [False]        # True while a hook runs
        self.names: list = []
        self.spans: list = []       # [name, layer, start ns, end ns, parent]
        self.stack: list = []       # indices of the open spans
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rings: dict = {}       # id -> ring, kept alive so ids stay unique
        self.ring_keys: set = set()
        self.ideal_keys: set = set()

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["finiterings.rings_built"] = len(self.rings)
        counts["finiterings.rings_distinct"] = len(self.ring_keys)
        counts["finiterings.ideals_distinct"] = len(self.ideal_keys)
        # json.dumps runs the C encoder; json.dump would not
        text = json.dumps({"layers": LAYERS, "names": self.names,
                           "spans": self.spans, "counters": counts})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    # -- counters ---------------------------------------------------------------

    def _ring_key(self, ring):
        if hasattr(ring, "basis_products"):
            return (ring.moduli, ring.basis_products, ring.one_coords)
        return id(ring)             # a QuotientRing: no structure key

    def hook_for(self, layer: str, name: str, finite_ring_type):
        """The counter hook of public function `name` (`Class.method` for a
        method) of `layer`, or None."""
        counts = self.counts
        if layer == "finiterings" and name == "ideal_generated":
            def hook(args, kwargs, result, nested):
                counts["finiterings.ideals_generated"] += 1
                ring = args[0] if args else kwargs["ring"]
                self.ideal_keys.add((self._ring_key(ring),
                                     frozenset(e.key() for e in result)))
            return hook
        if layer == "finiterings" and "." not in name:
            def hook(args, kwargs, result, nested):
                if type(result) is finite_ring_type and \
                        id(result) not in self.rings:
                    self.rings[id(result)] = result
                    self.ring_keys.add(self._ring_key(result))
            return hook
        if layer == "infinitesimal" and name in ("enumerate_nilpotent_ideals",
                                                 "enumerate_pd_structures"):
            key = ("infinitesimal.nil_ideals"
                   if name == "enumerate_nilpotent_ideals"
                   else "infinitesimal.pd_structures")

            def hook(args, kwargs, result, nested):
                counts[key] += len(result)
            return hook
        if layer == "infinitesimal" and name == "point_set":
            def hook(args, kwargs, result, nested):
                pres = args[0] if args else kwargs["pres"]
                ring = args[1] if len(args) > 1 else kwargs["ring"]
                counts["infinitesimal.point_candidates"] += \
                    ring.cardinality ** pres.nvars
                counts["infinitesimal.points"] += len(result)
            return hook
        if layer == "groebner" and name == "syzygy_basis":
            def hook(args, kwargs, result, nested):
                counts["groebner.syzygy_calls"] += 1
            return hook
        if layer == "differentials" and name == "naive_cotangent_complex":
            def hook(args, kwargs, result, nested):
                counts["differentials.cotangent_calls"] += 1
            return hook
        if layer == "linalg" and name in _LINALG_SHAPES:
            shape = _LINALG_SHAPES[name]

            def hook(args, kwargs, result, nested):
                if not nested:      # kernel_of_map feeds nullspace: count once
                    rows, cols = shape(args)
                    counts["linalg.cells"] += rows * cols
            return hook
        return None

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, layer_index: int, name: str, hook):
        spans, stack, muted = self.spans, self.stack, self.muted
        name_index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if muted[0]:
                return fn(*args, **kwargs)
            if stack and spans[stack[-1]][1] == layer_index:
                result = fn(*args, **kwargs)
                nested = True
            else:
                span = [name_index, layer_index, clock(), 0,
                        stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
                nested = False
            if hook is not None:
                muted[0] = True
                try:
                    hook(args, kwargs, result, nested)
                finally:
                    muted[0] = False
            return result
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"adickit.{m}") for m in LAYERS]
        ring_type = modules[LAYERS.index("finiterings")].FiniteRing
        wrapped: dict = {}          # id(original function) -> wrapper
        for index, (layer, mod) in enumerate(zip(LAYERS, modules)):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, index, layer)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    hook = self.hook_for(layer, attr, ring_type)
                    wrapped[id(obj)] = (obj, self.wrap(
                        obj, index, f"{layer}.{attr}", hook))
        # `from .groebner import syzygy_basis` copied the original into the
        # importing module's namespace: rebind it there too
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])

    def _wrap_class(self, cls, index: int, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                if not inspect.isgeneratorfunction(fn):
                    setattr(cls, attr, type(member)(
                        self.wrap(fn, index, name, None)))
            elif inspect.isfunction(member) and \
                    not inspect.isgeneratorfunction(member):
                hook = self.hook_for(layer, f"{cls.__name__}.{attr}", None)
                setattr(cls, attr, self.wrap(member, index, name, hook))


def aggregate(dump: dict) -> dict:
    """Per-layer calls, self and total seconds, the counters, and the traced
    wall time (the root spans' duration)."""
    layers = dump["layers"]
    spans = dump["spans"]
    child = [0] * len(spans)
    ancestors = [0] * len(spans)    # bit set of the layers enclosing a span
    for i, (_, layer, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            ancestors[i] = ancestors[parent] | (1 << spans[parent][1])
    calls = [0] * len(layers)
    self_ns = [0] * len(layers)
    total_ns = [0] * len(layers)
    wall_ns = 0
    for i, (_, layer, start, end, parent) in enumerate(spans):
        calls[layer] += 1
        self_ns[layer] += end - start - child[i]
        if not ancestors[i] >> layer & 1:
            total_ns[layer] += end - start
        if parent < 0:
            wall_ns += end - start
    out = {}
    for k, layer in enumerate(layers):
        out[f"{layer}.calls"] = calls[k]
        out[f"{layer}.self_s"] = self_ns[k] / 1e9
        out[f"{layer}.total_s"] = total_ns[k] / 1e9
    out.update(dump["counters"])
    out["trace.wall_s"] = wall_ns / 1e9
    return out


def main(argv: list) -> int:
    if len(argv) != 3:
        print("usage: tracer.py SPANS.json SCRIPT.adk", file=sys.stderr)
        return 2
    spans_path, script = argv[1], argv[2]
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("adickit.cli")
    try:
        return cli.main(["run", script])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
