"""Prime and maximal ideal classification over the graded-ideal lattice.

Ideals are described symbolically: a graded ideal is an admissible pair
(H, S); a non-graded prime/maximal ideal only ever occurs in an
infinite family I(H, B_H) + <f(c)> indexed by an irreducible Laurent
polynomial f, so such a family is reported once, as the pair of its
hereditary saturated set and its witness cycle, with the polynomial
kept as an opaque token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cycles import Cycle, cycles_without_K
from .graph import DEFAULT_CAP, MAX_EXACT_VERTICES, DirectedGraph, GraphError, _trusted, _vertex_set
from .lattice import (
    AdmissiblePair,
    _is_hereditary_saturated,
    enumerate_HE,
)

POLY_TOKEN = "irreducible f in K[x,x^-1]"


@dataclass(frozen=True)
class GradedIdeal:
    pair: AdmissiblePair

    def to_json_dict(self) -> dict:
        return {"kind": "graded", **self.pair.to_json_dict()}


@dataclass(frozen=True)
class NonGradedFamily:
    """All ideals I(H, B_H) + <f(c)>, one per irreducible polynomial f,
    which every family names by the one token ``poly``.  H must be
    hereditary saturated, and c one of ``cycles_without_K`` that misses H.
    Each family keeps its B_H (``_b_h``) as ``AdmissiblePair`` does."""

    graph: DirectedGraph = field(repr=False)
    H: frozenset[str]
    cycle: Cycle
    poly = POLY_TOKEN

    def __post_init__(self):
        vars(self).update(H=_vertex_set(self.H))
        g = self.graph
        if not _is_hereditary_saturated(g, self.H):
            raise GraphError("H is not hereditary saturated")
        if self.cycle not in cycles_without_K(g):
            raise GraphError("cycle is not a cycle without K of this graph")
        if set(self.cycle.vertices) & self.H:
            raise GraphError("cycle meets H")
        vars(self).update(_b_h=g._masks.breaking(g._masks.of(self.H)))

    def to_json_dict(self) -> dict:
        return {
            "kind": "nongraded_family",
            "H": sorted(self.H),
            "cycle": list(self.cycle.edges),
            "poly": self.poly,
        }


IdealDescriptor = GradedIdeal | NonGradedFamily


def descriptor_sort_key(d: IdealDescriptor) -> tuple:
    """The order of the prime and maximal reports: by H's sorted ids,
    then graded before families, then by S's sorted ids or by the
    cycle's edges.  The per-tail table (``_by_tail``) is kept in it."""
    if isinstance(d, GradedIdeal):
        return (sorted(d.pair.H), 0, sorted(d.pair.S))
    return (sorted(d.H), 1, list(d.cycle.edges))


def classify_prime(g: DirectedGraph, d: IdealDescriptor) -> bool:
    """Decide primeness by the trichotomy over (H, S) shape and cycles.

    Graded descriptors must come with S = B_H or S = B_H minus one
    vertex, B_H being the one the pair holds; anything else is rejected
    as malformed.  The improper pair (E^0, empty) is not a prime ideal.
    """
    masks = g._masks
    if isinstance(d, GradedIdeal):
        pair = d.pair
        if pair.graph != g:
            raise GraphError("descriptor was built for a different graph")
        tail = masks.full & ~masks.of(pair.H)
        if pair.S == pair._b_h:
            # H is hereditary saturated, so a downward-directed complement is a closed tail
            return tail in masks.tails
        missing = pair._b_h - pair.S
        if len(missing) != 1:
            raise GraphError("graded descriptor needs S = B_H or S = B_H minus one vertex")
        (u,) = missing
        return tail == masks.ancestors[masks.index[u]]
    if isinstance(d, NonGradedFamily):
        if d.graph != g:
            raise GraphError("descriptor was built for a different graph")
        return masks.full & ~masks.of(d.H) == masks.ancestors[masks.index[d.cycle.base]]
    raise GraphError(f"not an ideal descriptor: {d!r}")


def gr_of(d: IdealDescriptor) -> AdmissiblePair:
    """The largest graded ideal inside the described ideal, gr(M) for a
    non-graded maximal M: for a family, the pair (H, B_H) of the B_H the
    family holds, with no closure and no emitter scan."""
    if isinstance(d, GradedIdeal):
        return d.pair
    if isinstance(d, NonGradedFamily):
        return _trusted(AdmissiblePair, graph=d.graph, H=d.H, S=d._b_h, _b_h=d._b_h)
    raise GraphError(f"not an ideal descriptor: {d!r}")


def enumerate_primes(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[IdealDescriptor]:
    """All prime-ideal descriptors, one entry per non-graded family.

    A prime's H has a downward-directed complement C, and those C are
    exactly the M(d): a finite downward-directed C has a common
    descendant d in C, so C lies in M(d); H is hereditary, so M(d)
    misses H; and M(d) is downward directed through d.  So each
    distinct M(d) whose complement H is hereditary saturated gives
    (H, B_H), (H, B_H - {u}) for each u in B_H with M(u) = M(d), and a
    family per cycle without K whose base has M(base) = M(d).

    Each such M(d) is a closed tail, whose primes are read off the
    graph's table (``_by_tail``), in its order.  Each call passes
    ``enumerate_HE``, which decides its caps without walking H_E when it
    cannot refuse.
    """
    enumerate_HE(g, cap, max_vertices)
    out: list[IdealDescriptor] = []
    for hset, b_h, graded, cycle in _by_tail(g).values():
        # each S lies within B_H
        out += [GradedIdeal(_trusted(AdmissiblePair, graph=g, H=hset, S=s, _b_h=b_h)) for s in graded]
        if cycle is not None:
            out.append(_trusted(NonGradedFamily, graph=g, H=hset, cycle=cycle, _b_h=b_h))
    return out


def _by_tail(g: DirectedGraph) -> dict[int, tuple]:
    """For each closed tail T (``_Masks.tails``), with H = E^0 minus T:
    ``(H, B_H, the graded S of T's primes, the cycle without K based in
    T or None)``, built once and kept on the index (``_Masks.by_tail``).
    The graded S are B_H and B_H - {u} for each u in B_H with M(u) = T.
    The ends of T (the d with M(d) = T) form one strongly connected
    component, and a cycle without K is its whole component, so at most
    one is based in T, and the cycles are keyed by M(base).  Distinct
    closed tails have distinct H, so the table is sorted once, by H's
    sorted ids, with each T's S in order of their sorted ids: read in
    order, it lists the primes in ``descriptor_sort_key`` order.
    """
    masks = g._masks
    if masks.by_tail is None:
        based = {masks.ancestors[masks.index[c.base]]: c for c in cycles_without_K(g)}
        table = {}
        for tail in masks.tails:
            h = masks.full & ~tail
            b_h = masks.breaking(h)
            graded = [b_h] + [b_h - {u} for u in b_h if masks.ancestors[masks.index[u]] == tail]
            table[tail] = (masks.to_set(h), b_h, tuple(sorted(graded, key=sorted)), based.get(tail))
        masks.by_tail = dict(sorted(table.items(), key=lambda item: sorted(item[1][0])))
    return masks.by_tail


def _maximal_rows(g: DirectedGraph) -> list[tuple]:
    """The entries of ``_by_tail`` for the least closed tails T
    (``_Masks.least_tails``), whose complements H are the coatoms of
    H_E, in table order.  Each gives the maximal ideal (H, B_H), or the
    family of the cycle c without K based in T when there is one.

    The quotient at (H, B_H) has the vertices T, none primed, and no
    hereditary saturated set but {} and T, so it is simple exactly when
    it satisfies (L).  An exitless cycle of it is a cycle without K based
    in T; conversely each exit of such a c lands in H, as an exit to a w
    in T would lie in c's strongly connected component (w reaches
    c.base), which holds no arrow but c's own.  A graded (H, S) with a
    smaller S lies inside (H, B_H).
    """
    least = set(g._masks.least_tails())
    return [row for tail, row in _by_tail(g).items() if tail in least]


def maximal_graded_ideals(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[AdmissiblePair]:
    """Pairs (H, B_H) with H maximal proper whose quotient satisfies (L)."""
    enumerate_HE(g, cap, max_vertices)
    return [
        _trusted(AdmissiblePair, graph=g, H=hset, S=b_h, _b_h=b_h)
        for hset, b_h, _, cycle in _maximal_rows(g)
        if cycle is None
    ]


def maximal_nongraded_families(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[NonGradedFamily]:
    """One family per maximal proper H and exitless cycle of its quotient."""
    enumerate_HE(g, cap, max_vertices)
    return [
        _trusted(NonGradedFamily, graph=g, H=hset, cycle=cycle, _b_h=b_h)
        for hset, b_h, _, cycle in _maximal_rows(g)
        if cycle is not None
    ]


@dataclass(frozen=True)
class MaximalityReport:
    """The maximal ideals found, graded and in families.  A graph has a
    vertex, so L_K(E) is unital: a maximal ideal exists and every proper
    ideal lies in one, true of every report by theorem."""

    graded_maximals: tuple[AdmissiblePair, ...]
    nongraded_maximal_families: tuple[NonGradedFamily, ...]
    exists_maximal = True
    every_ideal_below_maximal = True

    @property
    def every_maximal_graded(self) -> bool:
        return not self.nongraded_maximal_families

    @property
    def unique_maximal(self) -> GradedIdeal | None:
        """The maximal ideal if it is unique: graded, as a family holds infinitely many."""
        if len(self.graded_maximals) == 1 and not self.nongraded_maximal_families:
            return GradedIdeal(self.graded_maximals[0])
        return None

    def to_json_dict(self) -> dict:
        return {
            "graded_maximals": [p.to_json_dict() for p in self.graded_maximals],
            "nongraded_maximal_families": [
                {"H": sorted(f.H), "cycle": list(f.cycle.edges)}
                for f in self.nongraded_maximal_families
            ],
            "exists_maximal": self.exists_maximal,
            "every_ideal_below_maximal": self.every_ideal_below_maximal,
            "every_maximal_graded": self.every_maximal_graded,
            "unique_maximal": (
                None if self.unique_maximal is None else self.unique_maximal.to_json_dict()
            ),
        }


def existence_report(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> MaximalityReport:
    """Aggregate maximal-ideal structure of the graph's algebra.

    Both existence predicates hold by theorem, so nothing is scanned for
    them (``MaximalityReport``); in lattice terms H_E is finite and holds
    the proper set {}, so it has a coatom and every proper element lies
    below one.  The first step asks for H_E as the call's cap gate (one
    of the five ``enumerate_HE`` calls of ``analyze`` that
    ``perfbench/test_perfbench.py`` pins).
    """
    enumerate_HE(g, cap, max_vertices)
    return MaximalityReport(
        tuple(maximal_graded_ideals(g, cap, max_vertices)),
        tuple(maximal_nongraded_families(g, cap, max_vertices)),
    )
