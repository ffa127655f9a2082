"""The four deterministic workloads.

Each workload function writes its graph files into a work directory and
returns a ``Workload``: the ops of one pass, each with the check of its
answer.
The seed drives every random choice (the corpus, probe pairs, algebra
elements); the fixed families are fixed by size.  Every workload runs
every command, so that each per-command latency exists on each
workload; the commands a workload is not about run on small inputs
("probes") and are the numbers that should stay put there.

- ``lattice-antichain``: ``A_12``, 12 isolated vertices with two loops
  each, ``|H_E| = 4096``.  ``lattice`` and ``ideals`` do the work.
- ``cycle-dense``: ``K_9`` plus an exitless loop at ``z`` (about 125k
  simple cycles), and two refusal probes on ``K_10`` plus the loop at
  ``--cap 200000``.  ``cycles`` does the work.
- ``corpus-mix``: 500 random graphs of up to 7 vertices from
  ``random_graph`` in ``tests/conftest.py``; seed 20260809 is the
  acceptance corpus.  Per-call fixed cost dominates.
- ``algebra-products``: ``mul --json`` of ~300-term elements on the
  3-vertex unique-maximal fixture, and ``is_idempotent`` library calls.
  The only workload where ``algebra`` does work.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from conftest import random_graph, unique_maximal_graph
from lpaideals import DirectedGraph, algebra
from lpaideals.algebra import AlgebraElement
from oracles import breaking_vertices_brute, hereditary_saturated_sets_brute
from verify import (
    antichain_vertices,
    check_analyze,
    check_condition,
    check_hsets,
    check_maximals,
    check_mul,
    check_primes,
    check_quotient,
    clique_vertices,
    closed_form_antichain,
    closed_form_clique_with_loop,
    expect,
    oracle_expected,
    product,
    quotient_doc,
    render,
)

COMMANDS = ("analyze", "hsets", "primes", "maximals", "check", "quotient", "mul", "idempotent")


@dataclass
class Op:
    """One closed-loop operation: a CLI argv or a library call, and the
    check of its answer (stdout text, or the call's return value)."""

    command: str
    check: object
    argv: list | None = None
    call: object = None


@dataclass
class Workload:
    """One pass of ops, the untimed warm-up ops, and how long a pass takes
    at the reference speed (measured on a 2-core shared VM), from which
    ``--seconds`` is turned into a number of passes."""

    pass_ops: list[Op]
    warmup_ops: list[Op]
    nominal_pass_s: float
    shares: dict = field(default_factory=dict)


class _Inputs:
    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self._files = 0

    def write(self, g: DirectedGraph) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"g{self._files}.json")
        doc = {
            "vertices": list(g.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
            "omega_bundles": [{"src": b.src, "dst": b.dst} for b in g.omega_bundles],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    # -- ops on one graph file ------------------------------------------

    def report_ops(self, path: str, exp, commands=("analyze", "hsets", "primes", "maximals")) -> list[Op]:
        """CLI ops whose answers are checked against an ``Expected``
        (or a zero-argument function returning one, evaluated lazily)."""
        get = exp if callable(exp) else (lambda: exp)
        checks = {
            "analyze": lambda out: check_analyze(get(), json.loads(out)),
            "hsets": lambda out: check_hsets(get(), json.loads(out)),
            "primes": lambda out: check_primes(get(), json.loads(out)),
            "maximals": lambda out: check_maximals(get(), json.loads(out)),
        }
        ops = [Op(c, checks[c], [c, path, "--json"]) for c in commands if c in checks]
        for which in ("L", "K"):
            if f"check{which}" in commands:
                ops.append(
                    Op(
                        "check",
                        lambda out, w=which: check_condition(get(), w, json.loads(out)),
                        ["check", path, "--condition", which, "--json"],
                    )
                )
        return ops

    def quotient_op(self, g, path, hset, sset) -> Op:
        expected = quotient_doc(g, frozenset(hset), frozenset(sset))
        argv = ["quotient", path, "--H", ",".join(sorted(hset)), "--S", ",".join(sorted(sset))]
        return Op("quotient", lambda out: check_quotient(expected, out), argv)

    def mul_op(self, path, lhs: dict, rhs: dict) -> Op:
        expected = product(lhs, rhs)
        argv = ["mul", path, "--lhs", render(lhs), "--rhs", render(rhs), "--json"]
        return Op("mul", lambda out: check_mul(expected, out), argv)

    def idempotent_op(self, g, x: AlgebraElement, answer: bool) -> Op:
        def check(value):
            expect(value is answer, f"is_idempotent: expected {answer}")
            return {}

        return Op("idempotent", check, call=lambda: algebra.is_idempotent(g, x))

    # -- algebra inputs -------------------------------------------------

    def random_element(self, paths_by_target: dict, terms: int) -> dict:
        x: dict = {}
        targets = sorted(paths_by_target)
        for _ in range(terms):
            t = self.rng.choice(targets)
            a = self.rng.choice(paths_by_target[t])
            b = self.rng.choice(paths_by_target[t])
            x[(a[0], a[1], b[0], b[1])] = self.coefficient()
        return x

    def coefficient(self) -> Fraction:
        return Fraction(self.rng.choice([-3, -2, -1, 1, 2, 3]), self.rng.randint(1, 4))

    def idempotent_candidates(self, g) -> list[tuple[AlgebraElement, bool]]:
        """The sum of all vertex idempotents (idempotent) and twice it (not)."""
        vertices = [algebra.vertex_element(g, v) for v in g.vertices]
        total = sum(vertices[1:], vertices[0])
        return [(total, True), (total.scale(2), False)]


def paths_by_target(g, max_len: int) -> dict:
    """All paths of length <= max_len as (source, edges), by target."""
    out_edges = {v: [] for v in g.vertices}
    for e in g.edges:
        out_edges[e.src].append(e)
    out: dict = {}
    frontier = [(v, (), v) for v in g.vertices]
    for depth in range(max_len + 1):
        nxt = []
        for src, edges, at in frontier:
            out.setdefault(at, []).append((src, edges))
            if depth < max_len:
                nxt.extend((src, edges + (e.id,), e.dst) for e in out_edges[at])
        frontier = nxt
    return out


def _graph(vertices, edges=(), bundles=()) -> DirectedGraph:
    return DirectedGraph.from_parts(vertices, edges, bundles)


def antichain(n: int) -> DirectedGraph:
    vs = antichain_vertices(n)
    return _graph(vs, [e for i, v in enumerate(vs) for e in ((f"f{i:02d}", v, v), (f"g{i:02d}", v, v))])


def clique_with_loop(n: int) -> DirectedGraph:
    ks = clique_vertices(n)
    edges = [(f"e{i}_{j}", u, w) for i, u in enumerate(ks) for j, w in enumerate(ks) if i != j]
    return _graph(ks + ["z"], edges + [("c", "z", "z")])


def breakers(k: int) -> DirectedGraph:
    """k infinite emitters b_i, each with a loop f_i, an edge d_i to the
    sink w and a bundle to w: every b_i breaks H = {w}."""
    bs = [f"b{i:02d}" for i in range(k)]
    edges = [(f"f{i:02d}", b, b) for i, b in enumerate(bs)]
    edges += [(f"d{i:02d}", b, "w") for i, b in enumerate(bs)]
    return _graph(bs + ["w"], edges, [(b, "w") for b in bs])


def _warmup(b: _Inputs) -> list[Op]:
    """Each command once on a one-vertex graph, to fill lazy imports and
    first-call caches before timing."""
    g = _graph(["x"], [("l", "x", "x")])
    path = b.write(g)
    exp = oracle_expected(g)
    ops = b.report_ops(path, exp, ("analyze", "hsets", "primes", "maximals", "checkL", "checkK"))
    ops.append(b.quotient_op(g, path, (), ()))
    ops.append(b.mul_op(path, {("x", ("l",), "x", ()): Fraction(1)}, {("x", (), "x", ("l",)): Fraction(2)}))
    ops.append(b.idempotent_op(g, algebra.vertex_element(g, "x"), True))
    return ops


# -- workloads ------------------------------------------------------------


def lattice_antichain(b: _Inputs, smoke: bool) -> Workload:
    n, probes = (4, 2) if smoke else (12, 16)
    g = antichain(n)
    path = b.write(g)
    exp = closed_form_antichain(n)
    ops = b.report_ops(path, exp)
    pool = paths_by_target(g, 2)
    vs = list(g.vertices)
    probe_ops = []
    for _ in range(probes):
        probe_ops += b.report_ops(path, exp, ("checkL", "checkK"))
        probe_ops.append(b.quotient_op(g, path, b.rng.sample(vs, n // 2), ()))
        probe_ops.append(b.mul_op(path, b.random_element(pool, 6), b.random_element(pool, 6)))
    probe_ops += [b.idempotent_op(g, *c) for c in b.idempotent_candidates(g) for _ in range(probes // 2)]
    return Workload(_interleave(ops, probe_ops), _warmup(b), 9.0)


def cycle_dense(b: _Inputs, smoke: bool) -> Workload:
    n, probes, probe_cap = (4, 2, 10) if smoke else (9, 24, 200_000)
    g = clique_with_loop(n)
    path = b.write(g)
    exp = closed_form_clique_with_loop(n)
    ops = b.report_ops(path, exp, ("checkL", "checkK", "primes", "maximals", "analyze"))
    big = clique_with_loop(n + 1)
    big_path = b.write(big)
    big_exp = closed_form_clique_with_loop(n + 1)
    for op in b.report_ops(big_path, big_exp, ("checkK", "primes")):
        op.argv += ["--cap", str(probe_cap)]
        ops.append(op)
    pool = paths_by_target(g, 2)
    probe_ops = []
    for i in range(probes):
        probe_ops += b.report_ops(path, exp, ("hsets",))
        probe_ops.append(b.quotient_op(g, path, ["z"] if i % 2 else clique_vertices(n), ()))
        probe_ops.append(b.mul_op(path, b.random_element(pool, 6), b.random_element(pool, 6)))
    probe_ops += [b.idempotent_op(g, *c) for c in b.idempotent_candidates(g) for _ in range(probes // 2)]
    return Workload(_interleave(ops, probe_ops), _warmup(b), 12.5)


def corpus_mix(b: _Inputs, smoke: bool) -> Workload:
    count = 10 if smoke else 500
    ops: list[Op] = []
    with_bundles = with_self_bundle = with_breaking = 0
    for _ in range(count):
        g = random_graph(b.rng, max_vertices=7, max_named=12, max_bundles=2)
        path = b.write(g)
        expected = functools.cache(lambda g=g: oracle_expected(g))
        ops += b.report_ops(
            path, expected, ("analyze", "hsets", "primes", "maximals", "checkL", "checkK")
        )
        full = frozenset(g.vertices)
        proper = sorted((h for h in hereditary_saturated_sets_brute(g) if h != full), key=sorted)
        breaking = [(h, breaking_vertices_brute(g, h)) for h in proper]
        breaking = [(h, bh) for h, bh in breaking if bh]
        if breaking:
            hset, b_h = b.rng.choice(breaking)
            sset = b_h - {b.rng.choice(sorted(b_h))}
        else:
            hset, sset = b.rng.choice(proper), frozenset()
        ops.append(b.quotient_op(g, path, hset, sset))
        pool = paths_by_target(g, 2)
        ops.append(
            b.mul_op(path, b.random_element(pool, b.rng.randint(1, 3)), b.random_element(pool, b.rng.randint(1, 3)))
        )
        candidates = b.idempotent_candidates(g)
        if breaking:
            hset, b_h = b.rng.choice(breaking)
            candidates.append((algebra.v_H_element(g, hset, b.rng.choice(sorted(b_h))), True))
        ops.append(b.idempotent_op(g, *b.rng.choice(candidates)))
        with_bundles += bool(g.omega_bundles)
        with_self_bundle += any(x.src == x.dst for x in g.omega_bundles)
        with_breaking += bool(breaking)
    shares = {
        "graphs": count,
        "with_bundles": with_bundles / count,
        "with_self_bundle": with_self_bundle / count,
        "with_breaking_vertex": with_breaking / count,
    }
    return Workload(ops, _warmup(b), 10.8, shares)


def algebra_products(b: _Inputs, smoke: bool) -> Workload:
    terms, pairs, reps, k = (10, 1, 1, 3) if smoke else (300, 4, 2, 12)
    g = unique_maximal_graph()
    path = b.write(g)
    by_target = paths_by_target(g, 4)
    pool = sorted(
        (a[0], a[1], c[0], c[1]) for t, ps in by_target.items() for a in ps for c in ps
    )
    ops = []
    for _ in range(pairs):
        lhs = {key: b.coefficient() for key in b.rng.sample(pool, terms)}
        rhs = {key: b.coefficient() for key in b.rng.sample(pool, terms)}
        ops.append(b.mul_op(path, lhs, rhs))
    gb = breakers(k)
    hset = frozenset({"w"})
    v_h = [algebra.v_H_element(gb, hset, v) for v in gb.vertices if v != "w"]
    for _ in range(4 * reps):
        chosen = b.rng.sample(v_h, (k + 1) // 2)
        total = sum(chosen[1:], chosen[0])
        ops.append(b.idempotent_op(gb, total, True))
        ops.append(b.idempotent_op(gb, total + chosen[0], False))
    candidates = b.idempotent_candidates(g)
    exp = oracle_expected(g)
    full = frozenset(g.vertices)
    proper = sorted((h for h in hereditary_saturated_sets_brute(g) if h != full), key=sorted)
    for _ in range(reps):
        ops += b.report_ops(path, exp, ("analyze", "hsets", "primes", "maximals", "checkL", "checkK"))
        ops.append(b.quotient_op(g, path, b.rng.choice(proper), ()))
        ops.append(b.idempotent_op(g, *b.rng.choice(candidates)))
    return Workload(ops, _warmup(b), 2.5)


def _interleave(heavy: list[Op], probes: list[Op]) -> list[Op]:
    """Spread the short probe ops evenly between the long ops, so that
    their median samples the whole pass rather than one moment of it."""
    out = []
    for i, op in enumerate(heavy):
        out.append(op)
        out += probes[i * len(probes) // len(heavy):(i + 1) * len(probes) // len(heavy)]
    return out


BY_NAME = {
    "lattice-antichain": lattice_antichain,
    "cycle-dense": cycle_dense,
    "corpus-mix": corpus_mix,
    "algebra-products": algebra_products,
}


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Generate the workload's inputs into ``workdir`` from ``seed``."""
    return BY_NAME[name](_Inputs(workdir, seed), smoke)
