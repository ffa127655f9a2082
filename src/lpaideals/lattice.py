"""The lattice of hereditary saturated vertex sets, and its ideal data.

A vertex set is hereditary when it is closed under moving forward along
edges (bundle targets included), and saturated when it contains every
regular vertex all of whose edge targets it contains.  These sets,
ordered by inclusion, index the graded ideals via admissible pairs
(H, S) with S a set of breaking vertices of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph import (
    DEFAULT_CAP,
    DirectedGraph,
    Edge,
    GraphError,
    OmegaBundle,
    ResourceCapError,
)

MAX_EXACT_VERTICES = 20

PRIME_MARK = "'"


def _mask(g: DirectedGraph, subset) -> int:
    """The index mask of a vertex set; UnknownVertexError for a vertex the graph lacks."""
    return g._masks.of(g.require_vertices(subset))


def is_hereditary(g: DirectedGraph, subset) -> bool:
    mask = _mask(g, subset)
    return g._masks.hereditary(mask) == mask


def is_saturated(g: DirectedGraph, subset) -> bool:
    mask = _mask(g, subset)
    return g._masks.saturate(mask) == mask


def _is_hereditary_saturated(g: DirectedGraph, subset) -> bool:
    mask = _mask(g, subset)
    return g._masks.close(mask) == mask


def hs_closure(g: DirectedGraph, subset) -> frozenset[str]:
    """Least hereditary and saturated superset (a closure operator)."""
    return g._masks.to_set(g._masks.close(_mask(g, subset)))


@dataclass(frozen=True)
class HSLattice:
    """All hereditary saturated sets of a graph, as the closed masks that
    ``enumerate_HE`` walked; ``sets`` lists them as vertex sets, in
    canonical order, built on first use.  Printing reads the masks
    (``sorted_ids``) and builds no vertex set."""

    graph: DirectedGraph
    _closed: frozenset[int] = field(repr=False)

    @cached_property
    def sets(self) -> tuple[frozenset[str], ...]:
        return self.graph._masks.sorted_sets(self._closed)

    def __contains__(self, subset) -> bool:
        try:
            return self.graph._masks.of(subset) in self._closed
        except KeyError:  # a vertex of another graph
            return False

    def sorted_ids(self) -> list[list[str]]:
        """Each set's sorted vertex ids, in the order of ``sets``."""
        masks = self.graph._masks
        return [masks.ids(m) for m in masks.in_order(self._closed)]

    def to_json_dict(self) -> dict:
        return {
            "sets": self.sorted_ids(),
            "maximal_proper": [sorted(s) for s in maximal_proper_elements(self)],
        }


def enumerate_HE(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> HSLattice:
    """Exactly all hereditary saturated sets, listed by size and then by
    their sorted vertex ids.  They are the closed sets of ``hs_closure``,
    found by Kuznetsov's Close-by-One: a depth-first walk that grows
    each set from a closed parent by one vertex i (``_Masks.grow``) and
    keeps it only when it adds no vertex below i.  So each set is found
    exactly once, with at most one step per vertex for each set found;
    the walk's order does not show, as the sets are listed sorted.
    Refuses graphs above ``max_vertices`` and lattices above ``cap``
    rather than approximating.  The first complete walk is kept in the
    graph's index and answers every later call on the graph, checked
    against its caps.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if len(g.vertices) > max_vertices:
        raise ResourceCapError(
            f"exact enumeration limited to {max_vertices} vertices, graph has {len(g.vertices)}"
        )
    masks = g._masks
    if masks.closed_sets is not None:
        if len(masks.closed_sets) > cap:
            raise ResourceCapError(f"lattice exceeds cap {cap}")
        return HSLattice(g, masks.closed_sets)
    least = masks.close(0)
    closed = [least]
    stack = [(least, 0)]  # a closed set, and the least vertex it may grow by
    while stack:
        parent, start = stack.pop()
        rest = masks.full & ~parent & -(1 << start)  # from start on, outside parent
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            if masks.descendants[i] & ~parent & (bit - 1):
                continue  # i's descendants already add a vertex below i
            child = masks.grow(parent, i)
            if child & ~parent & (bit - 1):
                continue  # saturation added one: another parent finds it
            closed.append(child)
            if len(closed) > cap:
                raise ResourceCapError(f"lattice exceeds cap {cap}")
            stack.append((child, i + 1))
    masks.closed_sets = frozenset(closed)
    return HSLattice(g, masks.closed_sets)


def maximal_proper_elements(lat: HSLattice) -> list[frozenset[str]]:
    """All H with H != E^0 and nothing strictly between H and E^0.

    These are the sets maximal among the complements E^0 minus M(d) (M(d)
    the vertices reaching d) that lie in H_E, each proper as it misses d.
    A proper H misses M(w) for any w outside it, as H is hereditary.  A
    walk from outside H can stay outside, as H is saturated, until it
    reaches a sink, an infinite emitter or a vertex w on a closed path;
    each regular vertex of M(w) then has an edge into M(w), so
    E^0 minus M(w) is saturated, lies in H_E and contains H.

    Each call scans anew: only the commands that print the coatoms
    (``analyze`` and ``hsets``, once each) ask for them.
    """
    masks = lat.graph._masks
    candidates = {masks.full & ~m for m in masks.ancestors} & lat._closed
    maximal = (h for h in candidates if not any(h != o and not h & ~o for o in candidates))
    return list(masks.sorted_sets(maximal))


def breaking_vertices(g: DirectedGraph, subset) -> frozenset[str]:
    """Breaking vertices of a hereditary saturated set H: infinite
    emitters outside H whose edges leaving H are named, at least one,
    and finitely many (so every bundle must land in H).
    """
    hset = g.require_vertices(subset)
    if not _is_hereditary_saturated(g, hset):
        raise GraphError("set is not hereditary saturated")
    return frozenset(
        w
        for w in g.vertices
        if w not in hset and g.out_bundles(w) and all(b.dst in hset for b in g.out_bundles(w))
        and any(e.dst not in hset for e in g.out_edges(w))
    )


@dataclass(frozen=True)
class AdmissiblePair:
    """(H, S) with H hereditary saturated and S a set of breaking
    vertices of H; stands for the graded ideal generated by H and the
    elements v^H, v in S.
    """

    graph: DirectedGraph = field(repr=False)
    H: frozenset[str]
    S: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "H", frozenset(self.H))
        object.__setattr__(self, "S", frozenset(self.S))
        bad = self.S - breaking_vertices(self.graph, self.H)
        if bad:
            raise GraphError(f"not breaking vertices of H: {sorted(bad)}")

    def to_json_dict(self) -> dict:
        return {"H": sorted(self.H), "S": sorted(self.S)}


def _pair(g: DirectedGraph, hset: frozenset[str], sset: frozenset[str]) -> AdmissiblePair:
    """A pair whose S is known to lie in B_H, not checked again."""
    pair = object.__new__(AdmissiblePair)
    object.__setattr__(pair, "graph", g)
    object.__setattr__(pair, "H", hset)
    object.__setattr__(pair, "S", sset)
    return pair


def leq_prime(p1: AdmissiblePair, p2: AdmissiblePair) -> bool:
    """The ideal-inclusion order: H1 within H2 and S1 within H2 union S2."""
    if p1.graph != p2.graph:
        raise GraphError("admissible pairs belong to different graphs")
    return p1.H <= p2.H and p1.S <= (p2.H | p2.S)


def quotient_graph(g: DirectedGraph, pair: AdmissiblePair) -> DirectedGraph:
    """The quotient graph at (H, S).

    Vertices outside H survive; every unbroken breaking vertex v (in
    B_H but not in S) additionally gets a primed sink copy v'.  Edges
    and bundles into H disappear; edges and bundles into an unbroken
    breaking vertex are doubled by a primed copy landing on the sink.
    """
    if g != pair.graph:
        raise GraphError("pair was built for a different graph")
    hset = pair.H
    unbroken = breaking_vertices(g, hset) - pair.S
    primed = {v: v + PRIME_MARK for v in unbroken}
    kept = [v for v in g.vertices if v not in hset]
    if not kept:
        raise GraphError("quotient at the full vertex set would be the empty graph")
    collisions = set(primed.values()) & set(kept)
    if collisions:
        raise GraphError(f"primed vertex ids collide with existing ids: {sorted(collisions)}")

    edges: list[Edge] = []
    for e in g.edges:
        if e.dst in hset:
            continue
        edges.append(e)
        if e.dst in primed:
            primed_id = e.id + PRIME_MARK
            if g.has_edge_id(primed_id):
                raise GraphError(f"primed edge id {primed_id!r} collides with an existing edge")
            edges.append(Edge(primed_id, e.src, primed[e.dst]))
    bundles: list[OmegaBundle] = []
    for b in g.omega_bundles:
        if b.dst in hset:
            continue
        bundles.append(b)
        if b.dst in primed:
            bundles.append(OmegaBundle(b.src, primed[b.dst]))
    return DirectedGraph(tuple(kept) + tuple(primed.values()), tuple(edges), tuple(bundles))
