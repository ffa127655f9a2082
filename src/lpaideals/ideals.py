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

from .cycles import Cycle, _is_cycle_without_K, cycles_without_K
from .graph import DEFAULT_CAP, DirectedGraph, GraphError
from .lattice import (
    MAX_EXACT_VERTICES,
    AdmissiblePair,
    _is_hereditary_saturated,
    _pair,
    breaking_vertices,
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
    """All ideals I(H, B_H) + <f(c)>, one per irreducible polynomial f."""

    graph: DirectedGraph = field(repr=False)
    H: frozenset[str]
    cycle: Cycle
    poly: str = POLY_TOKEN

    def __post_init__(self):
        object.__setattr__(self, "H", frozenset(self.H))
        g = self.graph
        if not _is_hereditary_saturated(g, self.H):
            raise GraphError("H is not hereditary saturated")
        if not _is_cycle_without_K(g, self.cycle):
            raise GraphError("cycle is not a cycle without K of this graph")
        if set(self.cycle.vertices) & self.H:
            raise GraphError("cycle meets H")

    def to_json_dict(self) -> dict:
        return {
            "kind": "nongraded_family",
            "H": sorted(self.H),
            "cycle": list(self.cycle.edges),
            "poly": self.poly,
        }


def _family(g: DirectedGraph, hset: frozenset[str], cycle: Cycle) -> NonGradedFamily:
    """A family whose H and cycle are known to fit, not checked again."""
    family = object.__new__(NonGradedFamily)
    object.__setattr__(family, "graph", g)
    object.__setattr__(family, "H", hset)
    object.__setattr__(family, "cycle", cycle)
    object.__setattr__(family, "poly", POLY_TOKEN)
    return family


IdealDescriptor = GradedIdeal | NonGradedFamily


def descriptor_sort_key(d: IdealDescriptor):
    if isinstance(d, GradedIdeal):
        return _row_key((d.pair.H, d.pair.S))
    return _row_key((d.H, d.cycle))


def _row_key(row: tuple) -> tuple:
    """The order of the prime rows ``(H, S)`` and ``(H, cycle)``: by H,
    then graded before families, then by S or by the cycle's edges."""
    hset, rest = row
    if isinstance(rest, Cycle):
        return (sorted(hset), 1, list(rest.edges))
    return (sorted(hset), 0, sorted(rest))


def classify_prime(g: DirectedGraph, d: IdealDescriptor) -> bool:
    """Decide primeness by the trichotomy over (H, S) shape and cycles.

    Graded descriptors must come with S = B_H or S = B_H minus one
    vertex; anything else is rejected as malformed.  The improper pair
    (E^0, empty) is not a prime ideal.
    """
    masks = g._masks
    if isinstance(d, GradedIdeal):
        pair = d.pair
        if pair.graph != g:
            raise GraphError("descriptor was built for a different graph")
        tail = masks.full & ~masks.of(pair.H)
        if not tail:
            return False
        b_h = breaking_vertices(g, pair.H)
        if pair.S == b_h:
            # H is hereditary, so a downward-directed complement is an M(d)
            return tail in masks.ancestors
        missing = b_h - pair.S
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
    """The largest graded ideal inside the described ideal."""
    if isinstance(d, GradedIdeal):
        return d.pair
    if isinstance(d, NonGradedFamily):
        return _pair(d.graph, d.H, breaking_vertices(d.graph, d.H))
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

    The caps decide only whether a call refuses, never the list, so the
    first answer is kept in the graph's index (``_Masks.primes``) as rows
    that name no graph: ``(H, S)`` for a graded prime and ``(H, cycle)``
    for a family.  Each call passes ``enumerate_HE``, which checks its
    caps, and then builds its own descriptors over g from the rows.
    """
    lat = enumerate_HE(g, cap, max_vertices)
    masks = g._masks
    if masks.primes is None:
        without_k = cycles_without_K(g)
        rows: list[tuple] = []
        for tail in set(masks.ancestors):
            if masks.full & ~tail not in lat._closed:
                continue
            hset = masks.to_set(masks.full & ~tail)
            b_h = breaking_vertices(g, hset)  # each S below lies in it: no pair checks again
            rows.append((hset, b_h))
            rows += [(hset, b_h - {u}) for u in b_h if masks.ancestors[masks.index[u]] == tail]
            rows += [(hset, c) for c in without_k if masks.ancestors[masks.index[c.base]] == tail]
        rows.sort(key=_row_key)
        masks.primes = tuple(rows)
    return [
        _family(g, hset, rest) if isinstance(rest, Cycle) else GradedIdeal(_pair(g, hset, rest))
        for hset, rest in masks.primes
    ]


def _primes_at_coatoms(g: DirectedGraph, cap: int, max_vertices: int):
    """The primes (H, B_H) at the coatoms H of H_E, and the prime families
    (H, c) at them, in ``enumerate_primes`` order.

    The coatoms are the H maximal among the primes' H, the complements of
    the M(d) in H_E (``maximal_proper_elements``).  The quotient at
    (H, B_H) adds no primed vertex, so its exitless cycles are the cycles
    c avoiding H whose exits all land in the hereditary H; such a c is
    without K, and M(c.base) is E^0 minus H, so (H, c) is a prime family.
    Conversely every exit of a prime family's cycle c lands in its
    H = E^0 minus M(c.base): an exit to a w outside H leaves c and w
    reaches c.base, so the exit lies inside c's strongly connected
    component, and for c without K that component holds no bundle and
    no named edge but c's own (``cycles_without_K``).  So no exit is
    checked.  The graded prime with the largest S at H is (H, B_H).

    Nothing is kept: each call filters the list that its own
    ``enumerate_primes`` call returns.
    """
    primes = enumerate_primes(g, cap, max_vertices)
    hsets = {d.pair.H if isinstance(d, GradedIdeal) else d.H for d in primes}
    coatoms = {h for h in hsets if not any(h < o for o in hsets)}
    graded: dict[frozenset[str], AdmissiblePair] = {}
    families = []
    for d in primes:
        if isinstance(d, GradedIdeal):
            best = graded.get(d.pair.H)
            if d.pair.H in coatoms and (best is None or len(d.pair.S) > len(best.S)):
                graded[d.pair.H] = d.pair
        elif d.H in coatoms:
            families.append(d)
    return list(graded.values()), families


def maximal_graded_ideals(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[AdmissiblePair]:
    """Pairs (H, B_H) with H maximal proper whose quotient satisfies (L)."""
    graded, families = _primes_at_coatoms(g, cap, max_vertices)
    return [p for p in graded if all(f.H != p.H for f in families)]


def maximal_nongraded_families(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[NonGradedFamily]:
    """One family per maximal proper H and exitless cycle of its quotient."""
    return _primes_at_coatoms(g, cap, max_vertices)[1]


@dataclass(frozen=True)
class MaximalityReport:
    graded_maximals: tuple[AdmissiblePair, ...]
    nongraded_maximal_families: tuple[NonGradedFamily, ...]
    exists_maximal: bool
    every_ideal_below_maximal: bool
    every_maximal_graded: bool
    unique_maximal: GradedIdeal | None

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
    them: a graph has a vertex, so L_K(E) is unital and every proper
    ideal lies in a maximal one; in lattice terms H_E is finite and holds
    the proper set {}, so it has a coatom and every proper element lies
    below one.  The first step asks for H_E as the call's cap gate (one
    of the five ``enumerate_HE`` calls of ``analyze`` that
    ``perfbench/test_perfbench.py`` pins).
    """
    enumerate_HE(g, cap, max_vertices)
    graded = tuple(maximal_graded_ideals(g, cap, max_vertices))
    families = tuple(maximal_nongraded_families(g, cap, max_vertices))
    unique = None
    if len(graded) == 1 and not families:
        unique = GradedIdeal(graded[0])
    return MaximalityReport(
        graded_maximals=graded,
        nongraded_maximal_families=families,
        exists_maximal=True,
        every_ideal_below_maximal=True,
        every_maximal_graded=not families,
        unique_maximal=unique,
    )
