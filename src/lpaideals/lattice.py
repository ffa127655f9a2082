"""The lattice of hereditary saturated vertex sets, and its ideal data.

A vertex set is hereditary when it is closed under moving forward along
edges (bundle targets included), and saturated when it contains every
regular vertex all of whose edge targets it contains.  These sets,
ordered by inclusion, index the graded ideals via admissible pairs
(H, S) with S a set of breaking vertices of H.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .graph import (
    DEFAULT_CAP,
    MAX_EXACT_VERTICES,
    DirectedGraph,
    Edge,
    GraphError,
    OmegaBundle,
    ResourceCapError,
    _Masks,
    _vertex_set,
)

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
    """All hereditary saturated sets of a graph, as closed masks.
    Membership is decided by the index's closure, with no walk
    (``_is_hereditary_saturated``).  Only listing reads the masks:
    ``enumerate_HE`` has decided the caps, so that cannot refuse, and
    the first read walks H_E one closed tail at a time (``_walk``),
    unless a call already has, and keeps the walk in the graph's index.
    ``sets`` lists them as vertex sets, in canonical order, built on
    first use.  The commands print the sets off the masks and build no
    set: each set's framed text is one concatenation of the texts of its
    two halves, or one lookup (``_Masks.texts``)."""

    graph: DirectedGraph

    @property
    def _closed(self) -> frozenset[int]:
        masks = self.graph._masks
        if masks.closed_sets is None:  # no lattice has more than 2^t sets
            masks.closed_sets = _walk(masks, 1 << len(masks.tails))
        return masks.closed_sets

    @cached_property
    def sets(self) -> tuple[frozenset[str], ...]:
        return self.graph._masks.sorted_sets(self._closed)

    def __contains__(self, subset) -> bool:
        try:
            return _is_hereditary_saturated(self.graph, subset)
        except (GraphError, TypeError):  # a string, a foreign id or no set of ids
            return False

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
    """Exactly all hereditary saturated sets, listed by size and then by
    their sorted vertex ids.  Refuses graphs above ``max_vertices`` and
    lattices above ``cap`` rather than approximating.

    The caps are decided at the call, and the walk runs only where the
    sets are read.  Each H is E^0 minus a union of closed tails
    (``_walk``), so with t closed tails |H_E| <= 2^t.  When 2^t <= cap
    the call cannot refuse, and it returns a lattice that walks on first
    read.  Otherwise the call walks now, refusing once the walk passes
    ``cap``.  The first complete walk is kept in the graph's index and
    answers every later call on the graph, checked against its caps; a
    refused walk keeps nothing.  So each call refuses exactly when a
    fresh walk would, with the same message.
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
    elif 1 << len(masks.tails) > cap:
        masks.closed_sets = _walk(masks, cap)
    return HSLattice(g)


def _walk(masks: _Masks, cap: int) -> frozenset[int]:
    """The masks of H_E, built over the closed tails (``_Masks.tails``).
    E^0 minus each H in H_E is the union of the closed tails that miss H
    (``_Masks.least_tails``), and that union holds every closed tail
    inside one it holds.  Conversely, for such a union U, E^0 minus U is
    the meet of the sets E^0 minus T over the held tails T, so it is in
    H_E, and a closed tail inside U has an end in a held tail, so it lies
    inside that tail and is held.  So H_E is the lattice of down-closed
    sets of closed tails (Birkhoff's representation).  The walk takes the
    tails in their order in ``_Masks.tails``, each after every tail
    inside it, one layer per tail T: each H found so far that misses the
    ends of the tails inside T gives H minus T.  No union of earlier
    tails holds all of T (a tail that holds an end of T holds T, so it
    is T or comes after it), so each set is found once, with one mask
    test per tail for each set found before it.  Each layer is appended
    as it is built and stops at the room left up to ``cap`` + 1 sets, so
    a walk holds no more masks than it needs to refuse, and it raises
    ResourceCapError once it finds more than ``cap`` sets.
    """
    room = min(cap, sys.maxsize - 1) + 1  # islice takes no stop above sys.maxsize
    closed = [masks.full]
    for tail, inside in masks.tails.items():
        # islice reads only the sets found before this tail while the layer is appended
        layer = (h & ~tail for h in islice(closed, len(closed)) if not inside & h)
        closed.extend(islice(layer, room - len(closed)))
        if len(closed) > cap:
            raise ResourceCapError(f"lattice exceeds cap {cap}")
    return frozenset(closed)


def maximal_proper_elements(lat: HSLattice) -> list[frozenset[str]]:
    """All H with H != E^0 and nothing strictly between H and E^0: the
    complements of the least closed tails (``_Masks.least_tails``), read
    off the index with no walk of H_E.  Each call scans anew: only the
    commands that print the coatoms (``analyze`` and ``hsets``) ask."""
    masks = lat.graph._masks
    return list(masks.sorted_sets(masks.full & ~t for t in masks.least_tails()))


def breaking_vertices(g: DirectedGraph, subset) -> frozenset[str]:
    """Breaking vertices of a hereditary saturated set H: infinite
    emitters outside H whose edges leaving H are named, at least one,
    and finitely many (so every bundle must land in H), by ``_Masks.breaking``.
    """
    mask = _mask(g, subset)
    if g._masks.close(mask) != mask:
        raise GraphError("set is not hereditary saturated")
    return g._masks.breaking(mask)


@dataclass(frozen=True)
class AdmissiblePair:
    """(H, S) with H hereditary saturated and S a set of breaking
    vertices of H; stands for the graded ideal generated by H and the
    elements v^H, v in S.  Every pair keeps B_H (``_b_h``) out of
    equality, hashing and ``repr``: the check of S reads it, and each
    pair the library builds by ``graph._trusted`` is given the B_H it
    was built from.
    """

    graph: DirectedGraph = field(repr=False)
    H: frozenset[str]
    S: frozenset[str] = frozenset()

    def __post_init__(self):
        hset = _vertex_set(self.H)
        vars(self).update(H=hset, S=_vertex_set(self.S), _b_h=breaking_vertices(self.graph, hset))
        bad = self.S - self._b_h
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
    unbroken = pair._b_h - pair.S
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
