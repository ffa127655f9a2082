"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces every public function of the six layer
modules (``graph``, ``lattice``, ``cycles``, ``ideals``, ``algebra``,
``cli``) and a few methods with timing wrappers, in every namespace that
binds them: ``cli`` and ``ideals`` import ``enumerate_HE``,
``condition_L`` and others by name, the package re-exports them, and
``cli._COMMANDS`` holds the command functions in a dict.  Patching only
the defining module would miss those calls.  ``uninstall()`` restores
the originals; the library itself is never edited.

Each wrapped call records its count and its self time (its duration
minus the time of wrapped calls made inside it).  Calls of the hot
leaves in ``HOT`` are only aggregated; every other call is also kept as
a span (op id, span id, parent span id, name, start, end) in memory and
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

import lpaideals
from lpaideals import algebra, cli, cycles, graph, ideals, lattice
from lpaideals.graph import ResourceCapError

LAYERS = {
    "graph": graph,
    "lattice": lattice,
    "cycles": cycles,
    "ideals": ideals,
    "algebra": algebra,
    "cli": cli,
}

METHODS = {
    "graph.descendants": (graph.DirectedGraph, "descendants"),
    "graph.m_of": (graph.DirectedGraph, "m_of"),
    "algebra.mul": (algebra.AlgebraElement, "__mul__"),
    "algebra.eq": (algebra.AlgebraElement, "__eq__"),
    "ideals.NonGradedFamily": (ideals.NonGradedFamily, "__post_init__"),
}

HOT = frozenset(
    {
        "graph.descendants",
        "graph.m_of",
        "lattice.hs_closure",
        "lattice.hereditary_closure",
        "lattice.is_hereditary",
        "lattice.is_saturated",
        "lattice.breaking_vertices",
        "cycles.is_downward_directed",
        "cycles.make_cycle",
        "ideals.descriptor_sort_key",
        "algebra.make_path",
        "algebra.vertex_path",
        "algebra.degree",
    }
)


def traced_functions() -> dict[str, object]:
    """Name -> original function for everything ``install`` wraps."""
    out = {}
    for layer, module in LAYERS.items():
        for fname, fn in vars(module).items():
            if fname.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ == module.__name__:
                out[f"{layer}.{fname}"] = fn
    for name, (cls, attr) in METHODS.items():
        out[name] = cls.__dict__[attr]
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.refusals: Counter = Counter()
        self.per_command: Counter = Counter()
        self.ops_calling: Counter = Counter()
        self.sizes: Counter = Counter()
        self.spans: list[tuple] = []
        self.command = None
        self.op_id = 0
        self._frames: list[list] = []
        self._called: set[str] = set()
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- op boundaries ---------------------------------------------------

    def begin_op(self, command: str) -> None:
        self.op_id += 1
        self.command = command

    def end_op(self) -> None:
        self.ops_calling.update(self._called)
        self._called.clear()
        self.command = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        frames = self._frames
        called = self._called
        hot = name in HOT
        on_result = _RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if not hot:
                tracer._next_span += 1
                frame[1] = tracer._next_span
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ResourceCapError:
                tracer.refusals[name] += 1
                raise
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                tracer.per_command[(tracer.command, name)] += 1
                called.add(name)
                if not hot:
                    parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                    tracer.spans.append((tracer.op_id, frame[1], parent, name, start, end))
            if on_result is not None:
                on_result(tracer.sizes, result)
            return result

        return traced

    def install(self) -> None:
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        namespaces = [vars(m) for m in LAYERS.values()] + [vars(lpaideals)]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(ns, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in wrappers:
                            self._patch(value, k, wrappers[id(v)])
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            setattr(cls, attr, wrappers[id(original)])
            self._patches.append((cls, attr, original))

    def _patch(self, mapping: dict, key, wrapper) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------

    def calls_per_command(self, op_counts: Counter) -> dict:
        """Mean calls of each wrapped function per op, by command."""
        out: dict[str, dict[str, float]] = {}
        for (command, name), n in sorted(self.per_command.items(), key=str):
            if command is not None and op_counts.get(command):
                out.setdefault(command, {})[name] = n / op_counts[command]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "span", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_sets(sizes, lat):
    sizes["he_size"] += len(lat.sets)


def _count_cycles(sizes, found):
    sizes["cycles_found"] += len(found)


def _count_terms(sizes, product):
    sizes["terms_out"] += len(product.terms)


def _count_primes(sizes, primes):
    sizes["primes_found"] += len(primes)


_RESULT_SIZES = {
    "lattice.enumerate_HE": _count_sets,
    "cycles.simple_cycles": _count_cycles,
    "algebra.mul": _count_terms,
    "ideals.enumerate_primes": _count_primes,
}
