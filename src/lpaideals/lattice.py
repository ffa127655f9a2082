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
    VertexKind,
)

MAX_EXACT_VERTICES = 20

PRIME_MARK = "'"


def is_hereditary(g: DirectedGraph, subset) -> bool:
    vs = g.require_vertices(subset)
    return all(g.successors(v) <= vs for v in vs)


def is_saturated(g: DirectedGraph, subset) -> bool:
    vs = g.require_vertices(subset)
    for v in g.vertices:
        if v in vs or g.vertex_kind(v) is not VertexKind.REGULAR:
            continue
        if all(e.dst in vs for e in g.out_edges(v)):
            return False
    return True


class _Masks:
    """A graph's vertex sets as int bitmasks.  Bit i stands for
    ``vertices[i]``, the vertex ids in descending order, so that of two
    sets of one size the larger mask has the smaller sorted id list.
    """

    def __init__(self, g: DirectedGraph):
        self.vertices = g.vertices[::-1]
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.full = (1 << len(self.vertices)) - 1
        self.descendants = [self.of(g.descendants(v)) for v in self.vertices]
        self.regular = 0
        self.targets = [0] * len(self.vertices)
        # regular_preds[i]: the regular vertices with a named edge into vertex i
        self.regular_preds = [0] * len(self.vertices)
        for i, v in enumerate(self.vertices):
            if g.vertex_kind(v) is not VertexKind.REGULAR:
                continue
            self.regular |= 1 << i
            for e in g.out_edges(v):
                self.targets[i] |= 1 << self.index[e.dst]
                self.regular_preds[self.index[e.dst]] |= 1 << i

    def of(self, subset) -> int:
        out = 0
        for v in subset:
            out |= 1 << self.index[v]
        return out

    def to_set(self, mask: int) -> frozenset[str]:
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def sorted_sets(self, masks) -> tuple[frozenset[str], ...]:
        """The masks as vertex sets, ordered by size, then by sorted ids."""
        return tuple(self.to_set(m) for m in sorted(masks, key=lambda m: (m.bit_count(), -m)))

    def hereditary(self, mask: int) -> int:
        """The hereditary closure: the OR of the descendant masks."""
        closed = 0
        rest = mask
        while rest:
            low = rest & -rest
            closed |= self.descendants[low.bit_length() - 1]
            rest &= ~closed
        return closed

    def close(self, mask: int) -> int:
        """The hereditary saturated closure of a vertex mask.

        A regular vertex joins the hereditary closure once all its edge
        targets lie inside, and is checked again only when one of its
        targets joins.  The set stays hereditary, because a regular
        vertex has only named edges and all of them land inside.
        """
        closed = self.hereditary(mask)
        pending = self.regular & ~closed
        while pending:
            low = pending & -pending
            pending ^= low
            i = low.bit_length() - 1
            if not self.targets[i] & ~closed:
                closed |= low
                pending |= self.regular_preds[i] & ~closed
        return closed


def hereditary_closure(g: DirectedGraph, subset) -> frozenset[str]:
    """Least hereditary superset: forward reachability closure."""
    masks = _Masks(g)
    return masks.to_set(masks.hereditary(masks.of(g.require_vertices(subset))))


def hs_closure(g: DirectedGraph, subset) -> frozenset[str]:
    """Least hereditary and saturated superset (a closure operator)."""
    masks = _Masks(g)
    return masks.to_set(masks.close(masks.of(g.require_vertices(subset))))


@dataclass(frozen=True)
class HSLattice:
    """All hereditary saturated sets of a graph, as the closed masks that
    ``enumerate_HE`` walked; ``sets`` lists them as vertex sets, in
    canonical order, built on first use."""

    graph: DirectedGraph
    _masks: _Masks = field(repr=False, compare=False)
    _closed: frozenset[int] = field(repr=False)

    @cached_property
    def sets(self) -> tuple[frozenset[str], ...]:
        return self._masks.sorted_sets(self._closed)

    def __contains__(self, subset) -> bool:
        try:
            return self._masks.of(subset) in self._closed
        except KeyError:  # a vertex of another graph
            return False

    def join(self, a, b) -> frozenset[str]:
        both = self.graph.require_vertices(a) | self.graph.require_vertices(b)
        return self._masks.to_set(self._masks.close(self._masks.of(both)))

    def to_json_dict(self) -> dict:
        return {
            "sets": [sorted(s) for s in self.sets],
            "maximal_proper": [sorted(s) for s in maximal_proper_elements(self)],
        }


def enumerate_HE(
    g: DirectedGraph,
    cap: int = DEFAULT_CAP,
    max_vertices: int = MAX_EXACT_VERTICES,
) -> HSLattice:
    """Exactly all hereditary saturated sets, ordered by size and then by
    their sorted vertex ids.  They are the closed sets of ``hs_closure``,
    found by Ganter's NextClosure in lectic order, each exactly once and
    with at most one closure per vertex between two of them.  Refuses
    graphs above ``max_vertices`` and lattices above ``cap`` rather than
    approximating.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if len(g.vertices) > max_vertices:
        raise ResourceCapError(
            f"exact enumeration limited to {max_vertices} vertices, graph has {len(g.vertices)}"
        )
    masks = _Masks(g)
    current = masks.close(0)
    closed = [current]
    while current != masks.full:
        # the lectically next closed set: the largest i not in current
        # whose closure of (current below i) + {i} adds nothing below i
        for i in reversed(range(len(g.vertices))):
            bit = 1 << i
            if current & bit:
                continue
            below = current & (bit - 1)
            candidate = masks.close(below | bit)
            if candidate & (bit - 1) == below:
                break
        current = candidate
        closed.append(current)
        if len(closed) > cap:
            raise ResourceCapError(f"lattice exceeds cap {cap}")
    return HSLattice(g, masks, frozenset(closed))


def maximal_proper_elements(lat: HSLattice) -> list[frozenset[str]]:
    """All H with H != E^0 and nothing strictly between H and E^0.

    These are the sets maximal among the complements E^0 minus M(d) (M(d)
    the vertices reaching d) that lie in H_E, each proper as it misses d.
    A proper H misses M(w) for any w outside it, as H is hereditary.  A
    walk from outside H can stay outside, as H is saturated, until it
    reaches a sink, an infinite emitter or a vertex w on a closed path;
    each regular vertex of M(w) then has an edge into M(w), so
    E^0 minus M(w) is saturated, lies in H_E and contains H.
    """
    g, masks = lat.graph, lat._masks
    candidates = {masks.full & ~masks.of(g.m_of(d)) for d in g.vertices} & lat._closed
    maximal = [h for h in candidates if not any(h != o and not h & ~o for o in candidates)]
    return list(masks.sorted_sets(maximal))


def breaking_vertices(g: DirectedGraph, subset) -> frozenset[str]:
    """Breaking vertices of a hereditary saturated set H: infinite
    emitters outside H whose edges leaving H are named, at least one,
    and finitely many (so every bundle must land in H).
    """
    hset = g.require_vertices(subset)
    if not (is_hereditary(g, hset) and is_saturated(g, hset)):
        raise GraphError("set is not hereditary saturated")
    return _breaking_vertices(g, hset)


def _breaking_vertices(g: DirectedGraph, hset: frozenset[str]) -> frozenset[str]:
    """``breaking_vertices`` for a set already known to be hereditary
    saturated, such as a member of ``H_E``."""
    out = set()
    for w in g.vertices:
        if w in hset or g.vertex_kind(w) is not VertexKind.INFINITE_EMITTER:
            continue
        if any(b.dst not in hset for b in g.out_bundles(w)):
            continue
        if any(e.dst not in hset for e in g.out_edges(w)):
            out.add(w)
    return frozenset(out)


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
