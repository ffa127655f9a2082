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

from .cycles import (
    Cycle,
    _has_exit_unchecked,
    _is_cycle_without_K,
    cycles_without_K,
    is_downward_directed,
)
from .graph import DEFAULT_CAP, DirectedGraph, GraphError
from .lattice import (
    MAX_EXACT_VERTICES,
    AdmissiblePair,
    _breaking_vertices,
    breaking_vertices,
    enumerate_HE,
    is_hereditary,
    is_saturated,
    maximal_proper_elements,
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
        if not (is_hereditary(g, self.H) and is_saturated(g, self.H)):
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


IdealDescriptor = GradedIdeal | NonGradedFamily


def descriptor_sort_key(d: IdealDescriptor):
    if isinstance(d, GradedIdeal):
        return (sorted(d.pair.H), 0, sorted(d.pair.S))
    return (sorted(d.H), 1, list(d.cycle.edges))


def classify_prime(g: DirectedGraph, d: IdealDescriptor) -> bool:
    """Decide primeness by the trichotomy over (H, S) shape and cycles.

    Graded descriptors must come with S = B_H or S = B_H minus one
    vertex; anything else is rejected as malformed.  The improper pair
    (E^0, empty) is not a prime ideal.
    """
    full = frozenset(g.vertices)
    if isinstance(d, GradedIdeal):
        pair = d.pair
        if pair.graph != g:
            raise GraphError("descriptor was built for a different graph")
        if pair.H == full:
            return False
        complement = full - pair.H
        b_h = breaking_vertices(g, pair.H)
        if pair.S == b_h:
            return is_downward_directed(g, complement)
        missing = b_h - pair.S
        if len(missing) != 1:
            raise GraphError("graded descriptor needs S = B_H or S = B_H minus one vertex")
        (u,) = missing
        return complement == g.m_of(u)
    if isinstance(d, NonGradedFamily):
        if d.graph != g:
            raise GraphError("descriptor was built for a different graph")
        return full - d.H == g.m_of(d.cycle.base)
    raise GraphError(f"not an ideal descriptor: {d!r}")


def gr_of(d: IdealDescriptor) -> AdmissiblePair:
    """The largest graded ideal inside the described ideal."""
    if isinstance(d, GradedIdeal):
        return d.pair
    if isinstance(d, NonGradedFamily):
        return AdmissiblePair(d.graph, d.H, breaking_vertices(d.graph, d.H))
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
    """
    lat = enumerate_HE(g, cap, max_vertices)
    without_k = cycles_without_K(g, cap)
    full = frozenset(g.vertices)
    m_of = {v: g.m_of(v) for v in g.vertices}
    out: list[IdealDescriptor] = []
    for tail in set(m_of.values()):
        hset = full - tail
        if hset not in lat:
            continue
        b_h = _breaking_vertices(g, hset)
        out.append(GradedIdeal(AdmissiblePair(g, hset, b_h)))
        for u in b_h:
            if m_of[u] == tail:
                out.append(GradedIdeal(AdmissiblePair(g, hset, b_h - {u})))
        for c in without_k:
            if m_of[c.base] == tail:
                out.append(NonGradedFamily(g, hset, c))
    out.sort(key=descriptor_sort_key)
    return out


def _coatom_primes(g: DirectedGraph, cap: int, max_vertices: int):
    """The primes (H, B_H) at the coatoms H of H_E, and the prime families
    (H, c) at them whose exits all land in H, in ``enumerate_primes`` order.

    The coatoms are the H maximal among the primes' H, the complements of
    the M(d) in H_E (``maximal_proper_elements``).  The quotient at
    (H, B_H) adds no primed vertex, so its exitless cycles are the cycles
    c avoiding H whose exits all land in the hereditary H; such a c is
    without K, and M(c.base) is E^0 minus H, so (H, c) is a prime family.
    """
    primes = enumerate_primes(g, cap, max_vertices)
    hsets = {d.pair.H if isinstance(d, GradedIdeal) else d.H for d in primes}
    coatoms = {h for h in hsets if not any(h < o for o in hsets)}
    graded, families = [], []
    for d in primes:
        if isinstance(d, GradedIdeal):
            if d.pair.H in coatoms and d.pair.S == _breaking_vertices(g, d.pair.H):
                graded.append(d.pair)
        elif d.H in coatoms and not _has_exit_unchecked(g, d.cycle, d.H):
            families.append(d)
    return graded, families


def maximal_graded_ideals(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[AdmissiblePair]:
    """Pairs (H, B_H) with H maximal proper whose quotient satisfies (L)."""
    graded, families = _coatom_primes(g, cap, max_vertices)
    return [p for p in graded if all(f.H != p.H for f in families)]


def maximal_nongraded_families(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> list[NonGradedFamily]:
    """One family per maximal proper H and exitless cycle of its quotient."""
    return _coatom_primes(g, cap, max_vertices)[1]


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

    Both existence predicates are read off the coatoms of H_E: it is a
    finite lattice with the proper element {}, so it has a coatom, and
    every proper element lies below one.
    """
    maximal = maximal_proper_elements(enumerate_HE(g, cap, max_vertices))
    graded = tuple(maximal_graded_ideals(g, cap, max_vertices))
    families = tuple(maximal_nongraded_families(g, cap, max_vertices))
    unique = None
    if len(graded) == 1 and not families:
        unique = GradedIdeal(graded[0])
    return MaximalityReport(
        graded_maximals=graded,
        nongraded_maximal_families=families,
        exists_maximal=bool(maximal),
        every_ideal_below_maximal=bool(maximal),
        every_maximal_graded=not families,
        unique_maximal=unique,
    )
