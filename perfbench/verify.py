"""Answer checks that do not trust the program.

Three sources of truth, none of them the library's own algorithms:

- closed forms for the fixed families (the loop antichain ``A_n`` and
  ``K_n`` plus an exitless loop), derived by hand;
- the brute-force oracles in ``tests/oracles.py`` (used read-only) for
  small graphs, plus a quotient construction written here;
- a prefix-rule product and a renderer written here for ``mul``.

Every check raises ``WrongAnswer`` on a mismatch.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracles
from oracles import (
    _cycle_has_exit,
    _cycle_sources,
    breaking_vertices_brute,
    condition_K_brute,
    condition_L_brute,
    cycles_brute,
    cycles_without_K_brute,
    hereditary_saturated_sets_brute,
)


class WrongAnswer(AssertionError):
    """The program returned an answer that the benchmark's check rejects."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def lattice_order(sets) -> list[list[str]]:
    return [sorted(s) for s in sorted(sets, key=lambda s: (len(s), sorted(s)))]


# -- expected answers -----------------------------------------------------


class Expected:
    """The full expected report of one graph, as JSON-shaped values.

    ``sets`` are hereditary saturated sets; ``primes`` are canonical keys
    ``("graded", H, S)`` / ``("family", H, cycle)``; the maximality report
    and the two conditions use the CLI's JSON shapes.  Condition witnesses
    are given as a predicate, because any exitless cycle (for L) or cycle
    without K is a valid witness.
    """

    def __init__(self, sets, primes, maximality, holds_l, holds_k, witness_l=None, witness_k=None):
        self.sets = lattice_order(sets)
        full = max(self.sets, key=len)
        proper = [set(s) for s in self.sets if s != full]
        self.coatoms = sorted(sorted(s) for s in proper if not any(s < t for t in proper))
        self.primes = sorted(primes)
        self.maximality = maximality
        self.holds = {"L": holds_l, "K": holds_k}
        self.witness_ok = {"L": witness_l, "K": witness_k}


def closed_form_antichain(n: int) -> Expected:
    """``A_n``: every vertex set is hereditary saturated, the primes and
    the graded maximals are the n complements of single vertices, and
    (L) and (K) hold (two loops at every vertex)."""
    vs = sorted(antichain_vertices(n))
    sets = [frozenset(v for i, v in enumerate(vs) if mask >> i & 1) for mask in range(1 << n)]
    coatoms = [sorted(set(vs) - {v}) for v in vs]
    primes = [("graded", tuple(h), ()) for h in coatoms]
    maximality = {
        "graded_maximals": sorted(({"H": h, "S": []} for h in coatoms), key=_pair_key),
        "nongraded_maximal_families": [],
        "exists_maximal": True,
        "every_ideal_below_maximal": True,
        "every_maximal_graded": True,
        "unique_maximal": None if n > 1 else {"kind": "graded", "H": [], "S": []},
    }
    return Expected(sets, primes, maximality, True, True)


def antichain_vertices(n: int) -> list[str]:
    return [f"a{i:02d}" for i in range(n)]


def closed_form_clique_with_loop(n: int) -> Expected:
    """``K_n`` on k-vertices plus the exitless loop ``c`` at ``z``:
    H_E = {}, {z}, K, all; primes I({z}), I(K) and the family (K, [c]);
    the only graded maximal is I({z}); (L) and (K) fail with witness [c]."""
    ks = sorted(clique_vertices(n))
    z = frozenset({"z"})
    kset = frozenset(ks)
    sets = [frozenset(), z, kset, kset | z]
    primes = [("graded", ("z",), ()), ("graded", tuple(ks), ()), ("family", tuple(ks), ("c",))]
    maximality = {
        "graded_maximals": [{"H": ["z"], "S": []}],
        "nongraded_maximal_families": [{"H": ks, "cycle": ["c"]}],
        "exists_maximal": True,
        "every_ideal_below_maximal": True,
        "every_maximal_graded": False,
        "unique_maximal": None,
    }
    only_c = lambda witness: witness == ["c"]  # noqa: E731
    return Expected(sets, primes, maximality, False, False, only_c, only_c)


def clique_vertices(n: int) -> list[str]:
    return [f"k{i}" for i in range(n)]


def oracle_expected(g) -> Expected:
    """Expected report of a small graph from the brute-force oracles."""
    sets = hereditary_saturated_sets_brute(g)
    full = frozenset(g.vertices)
    proper = [s for s in sets if s != full]
    coatoms = [s for s in proper if not any(s < t for t in proper)]
    graded, families = [], []
    for h in coatoms:
        b_h = breaking_vertices_brute(g, h)
        q = _QuotientView(quotient_doc(g, h, b_h))
        if condition_L_brute(q):
            graded.append({"H": sorted(h), "S": sorted(b_h)})
            continue
        for cyc in cycles_brute(q):
            if not _cycle_has_exit(q, cyc, _cycle_sources(q, cyc)):
                families.append({"H": sorted(h), "cycle": list(cyc)})
    graded.sort(key=_pair_key)
    families.sort(key=lambda f: (f["H"], f["cycle"]))
    unique = None
    if len(graded) == 1 and not families:
        unique = {"kind": "graded", **graded[0]}
    maximality = {
        "graded_maximals": graded,
        "nongraded_maximal_families": families,
        "exists_maximal": bool(coatoms),
        "every_ideal_below_maximal": all(any(x <= z for z in coatoms) for x in proper),
        "every_maximal_graded": not families,
        "unique_maximal": unique,
    }
    exitless = {
        tuple(c) for c in cycles_brute(g) if not _cycle_has_exit(g, c, _cycle_sources(g, c))
    }
    without_k = cycles_without_K_brute(g)
    without_k_cycles = {cyc for cyc, _ in without_k}
    return Expected(
        sets,
        _primes_brute(g, without_k),
        maximality,
        condition_L_brute(g),
        condition_K_brute(g),
        lambda w: tuple(w) in exitless,
        lambda w: tuple(w) in without_k_cycles,
    )


def _primes_brute(g, without_k):
    """``oracles.primes_brute(g)``, which recomputes the cycles without K
    for every hereditary saturated set; handing it the list computed once
    makes it about ten times faster and leaves its answer unchanged."""
    original = oracles.cycles_without_K_brute
    oracles.cycles_without_K_brute = lambda graph: without_k if graph is g else original(graph)
    try:
        return oracles.primes_brute(g)
    finally:
        oracles.cycles_without_K_brute = original


def _pair_key(p):
    return (p["H"], p["S"])


# -- quotient -------------------------------------------------------------


def quotient_doc(g, hset, sset) -> dict:
    """The quotient graph at (H, S) as graph JSON, from the definition:
    vertices outside H survive, each unbroken breaking vertex v gets a
    sink copy v', edges and bundles into H vanish, and those into an
    unbroken breaking vertex are doubled onto its copy."""
    unbroken = breaking_vertices_brute(g, hset) - set(sset)
    primed = {v: v + "'" for v in unbroken}
    vertices = [v for v in g.vertices if v not in hset] + list(primed.values())
    edges, bundles = [], []
    for e in g.edges:
        if e.dst not in hset:
            edges.append({"id": e.id, "src": e.src, "dst": e.dst})
            if e.dst in primed:
                edges.append({"id": e.id + "'", "src": e.src, "dst": primed[e.dst]})
    for b in g.omega_bundles:
        if b.dst not in hset:
            bundles.append({"src": b.src, "dst": b.dst})
            if b.dst in primed:
                bundles.append({"src": b.src, "dst": primed[b.dst]})
    return {
        "vertices": sorted(vertices),
        "edges": sorted(edges, key=lambda e: e["id"]),
        "omega_bundles": sorted(bundles, key=lambda b: (b["src"], b["dst"])),
    }


class _QuotientView:
    """Duck-typed graph over a graph JSON document, for the oracles."""

    class _Part:
        def __init__(self, **kw):
            self.__dict__.update(kw)

    def __init__(self, doc):
        self.vertices = tuple(doc["vertices"])
        self.edges = tuple(self._Part(**e) for e in doc["edges"])
        self.omega_bundles = tuple(self._Part(**b) for b in doc["omega_bundles"])


# -- CLI output checks ----------------------------------------------------


def check_hsets(exp: Expected, doc) -> dict:
    expect(doc["sets"] == exp.sets, "hsets: wrong lattice H_E")
    expect(sorted(doc["maximal_proper"]) == exp.coatoms, "hsets: wrong maximal proper sets")
    return {"he_size": len(doc["sets"])}


def _prime_key(d):
    if d["kind"] == "graded":
        return ("graded", tuple(d["H"]), tuple(d["S"]))
    expect(d["kind"] == "nongraded_family", f"primes: unknown kind {d['kind']!r}")
    return ("family", tuple(d["H"]), tuple(d["cycle"]))


def check_primes(exp: Expected, doc) -> dict:
    keys = [_prime_key(d) for d in doc]
    expect(sorted(keys) == exp.primes and len(set(keys)) == len(keys), "primes: wrong descriptors")
    return {"primes": len(keys)}


def check_maximals(exp: Expected, doc) -> dict:
    got = dict(doc)
    got["graded_maximals"] = sorted(doc["graded_maximals"], key=_pair_key)
    got["nongraded_maximal_families"] = sorted(
        doc["nongraded_maximal_families"], key=lambda f: (f["H"], f["cycle"])
    )
    expect(got == exp.maximality, "maximals: wrong maximality report")
    return {}


def check_condition(exp: Expected, which: str, doc) -> dict:
    expect(doc["holds"] == exp.holds[which], f"check {which}: wrong verdict")
    if doc["holds"]:
        expect(doc["witness"] is None, f"check {which}: witness on a holding condition")
    else:
        expect(exp.witness_ok[which](doc["witness"]), f"check {which}: invalid witness")
    return {}


def check_analyze(exp: Expected, doc) -> dict:
    check_condition(exp, "L", doc["condition_L"])
    check_condition(exp, "K", doc["condition_K"])
    sizes = check_hsets(exp, doc["hereditary_saturated"])
    check_maximals(exp, doc["maximality"])
    sizes.update(check_primes(exp, doc["primes"]))
    return sizes


def check_quotient(expected_doc: dict, text: str) -> dict:
    expect(json.loads(text) == expected_doc, "quotient: wrong quotient graph")
    return {}


# -- the algebra ----------------------------------------------------------
#
# A monomial is (alpha_source, alpha_edges, beta_source, beta_edges); an
# element is a dict monomial -> nonzero Fraction.


def product(x: dict, y: dict) -> dict:
    """x * y by the prefix rule (first Cuntz-Krieger relation only)."""
    out: dict = {}
    for (a_src, a_edges, b_src, b_edges), c1 in x.items():
        for (g_src, g_edges, d_src, d_edges), c2 in y.items():
            if b_src == g_src and g_edges[: len(b_edges)] == b_edges:
                key = (a_src, a_edges + g_edges[len(b_edges):], d_src, d_edges)
            elif b_src == g_src and b_edges[: len(g_edges)] == g_edges:
                key = (a_src, a_edges, d_src, d_edges + b_edges[len(g_edges):])
            else:
                continue
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def render(x: dict) -> str:
    """Canonical text of an element in the CLI's element grammar."""
    if not x:
        return "0"
    parts = []
    for i, ((a_src, a_edges, b_src, b_edges), c) in enumerate(sorted(x.items())):
        tokens = []
        if i == 0:
            head = ""
            if c != 1:
                tokens.append(str(c))
        else:
            head = " - " if c < 0 else " + "
            if abs(c) != 1:
                tokens.append(str(abs(c)))
        tokens.extend(a_edges)
        if not a_edges and not b_edges:
            tokens.append(a_src)
        if b_edges:
            if a_edges:
                tokens.append("|")
            tokens.extend(e + "*" for e in b_edges)
        parts.append(head + " ".join(tokens))
    return "".join(parts)


def check_mul(expected: dict, text: str) -> dict:
    doc = json.loads(text)
    got = {
        (t["alpha"]["source"], tuple(t["alpha"]["edges"]), t["beta"]["source"], tuple(t["beta"]["edges"])):
        Fraction(t["coeff"])
        for t in doc["terms"]
    }
    expect(len(got) == len(doc["terms"]) and got == expected, "mul: wrong product terms")
    expect(doc["result"] == render(expected), "mul: wrong rendered product")
    return {"terms": len(got)}
