"""Cycle-level structure: exits, Conditions (L) and (K), maximal tails.

Cycles range over named edges only: an omega bundle stands for
infinitely many anonymous edges, so it is never returned as a cycle or
a witness.  Bundles supply exits, and they count in the reachability
that decides "without K": a bundle that closes a cycle through a vertex
(a self bundle, or a bundle u -> w where w reaches u) puts that vertex
on infinitely many cycles, so no cycle through it is without K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph, Edge, GraphError


@dataclass(frozen=True)
class Cycle:
    """A simple cycle in canonical rotation (base = least vertex on it).

    ``edges`` are edge ids in order; ``vertices[i]`` is the source of
    ``edges[i]``.  Two cycles are the same iff they have the same edge
    tuple; cycles with equal vertex sets but different edges (parallel
    edges) are distinct.
    """

    edges: tuple[str, ...]
    vertices: tuple[str, ...]

    @property
    def base(self) -> str:
        return self.vertices[0]

    def __len__(self) -> int:
        return len(self.edges)


def make_cycle(g: DirectedGraph, edge_ids) -> Cycle:
    """Validate edge_ids as a simple cycle of g and canonicalise its rotation."""
    if isinstance(edge_ids, str):  # one str is not read as its characters
        raise GraphError(f"an edge sequence is a collection of ids, not the string {edge_ids!r}")
    edge_ids = tuple(edge_ids)
    if not edge_ids:
        raise GraphError("a cycle has at least one edge")
    edges = [g.edge(eid) for eid in edge_ids]
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            raise GraphError(f"edges {a.id!r} and {b.id!r} do not compose")
    if edges[-1].dst != edges[0].src:
        raise GraphError("edge sequence is not closed")
    sources = [e.src for e in edges]
    if len(set(sources)) != len(sources):
        raise GraphError("cycle passes through a vertex twice")
    return _rotated(edge_ids, sources)


def _rotated(edge_ids, sources) -> Cycle:
    """The cycle of these edges, ``sources[i]`` the source of
    ``edge_ids[i]``, rotated to start at its least vertex."""
    k = sources.index(min(sources))
    return Cycle(tuple(edge_ids[k:] + edge_ids[:k]), tuple(sources[k:] + sources[:k]))


def has_exit(g: DirectedGraph, c: Cycle) -> bool:
    """True iff some vertex of c emits a named edge not on c, or any
    bundle: iff c is not one of the exitless cycles that Condition (L)
    reads (``_exitless_cycles``)."""
    try:
        in_graph = make_cycle(g, c.edges) == c
    except GraphError:
        in_graph = False
    if not in_graph:
        raise GraphError("cycle does not belong to this graph")
    return c not in _exitless_cycles(g)


@dataclass(frozen=True)
class ConditionReport:
    """A condition's verdict: it holds exactly when no cycle witnesses its failure."""

    witness: Cycle | None

    @property
    def holds(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness.edges),
        }


def condition_L(g: DirectedGraph) -> ConditionReport:
    """Every cycle has an exit; witness is the first exitless cycle otherwise."""
    exitless = _exitless_cycles(g)
    return ConditionReport(exitless[0] if exitless else None)


def _exitless_cycles(g: DirectedGraph) -> list[Cycle]:
    """The cycles without an exit, sorted by edge tuple: each vertex of
    such a cycle emits one named edge and no bundle, so they are the
    cycles of the map that sends each such vertex along its one edge.
    It reads no index, so ``condition_L`` builds none."""
    return _cycles_of({v: es[0] for v, es in g._out_edges.items() if len(es) == 1 and not g._out_bundles[v]})


def cycles_without_K(g: DirectedGraph) -> list[Cycle]:
    """The simple cycles none of whose vertices lies on a second cycle,
    sorted by edge tuple: the cycles of the map that sends each vertex
    along its inner edge (``_inner_edge``).

    A cycle of that map lies in one strongly connected component C, and
    each of its vertices sends one arrow into C, its edge on the cycle.
    A path inside C from the cycle to any vertex of C would leave the
    cycle by a second such arrow, so C is the cycle, and no other cycle
    meets it, because a cycle through a vertex stays in its component.
    Conversely a cycle without K is a whole component holding no bundle
    and no named edge but its own, so each of its edges is an inner
    edge.  A vertex whose one edge lies on a cycle has that edge as its
    inner edge, so every exitless cycle is without K: (K) implies (L).
    """
    return _cycles_of({v: e for v in g.vertices if (e := _inner_edge(g, v)) is not None})


def _inner_edge(g: DirectedGraph, v: str) -> Edge | None:
    """v's one arrow into its own strongly connected component, read off
    the index (``_Masks.components``), when that arrow is a named edge;
    None when v sends no arrow, two arrows or a bundle into it."""
    masks = g._masks
    component = masks.components[masks.ancestors[masks.index[v]]]
    inner = None
    for arrow in g._out_edges[v] + g._out_bundles[v]:
        if component >> masks.index[arrow.dst] & 1:
            if inner is not None:
                return None
            inner = arrow
    return inner if isinstance(inner, Edge) else None


def _cycles_of(step: dict) -> list[Cycle]:
    """The cycles of ``step``, a map from a vertex to one of its edges,
    in canonical rotation and sorted by edge tuple.  A walk along the
    map from each vertex, stopped at the first vertex walked before,
    closes each cycle once: the walk that first reaches it."""
    walked: dict[str, str] = {}
    found = []
    for start in step:
        v = start
        while v in step and v not in walked:
            walked[v] = start
            v = step[v].dst
        if walked.get(v) == start:  # this walk closed on itself, at v
            cycle = [step[v]]
            while cycle[-1].dst != v:
                cycle.append(step[cycle[-1].dst])
            found.append(_rotated([e.id for e in cycle], [e.src for e in cycle]))
    found.sort(key=lambda c: c.edges)
    return found


def condition_K(g: DirectedGraph) -> ConditionReport:
    """Holds iff the graph has no cycle without K."""
    bad = cycles_without_K(g)
    return ConditionReport(bad[0] if bad else None)


def is_downward_directed(g: DirectedGraph, subset) -> bool:
    """True iff any two vertices of the subset share a descendant inside it.

    For a finite set this holds exactly when one member w is reached by
    all the others, that is when the set lies in ``M(w)``.
    """
    vs = g.require_vertices(subset)
    if not vs:
        raise GraphError("downward directedness is defined for non-empty sets")
    mask = g._masks.of(vs)
    return any(not mask & ~g._masks.ancestors[g._masks.index[w]] for w in vs)


def is_maximal_tail(g: DirectedGraph, subset) -> bool:
    """Checks the three maximal-tail conditions for a non-empty vertex set.

    MT-1: ancestors of members are members.  MT-2: every regular member
    keeps an edge inside the set.  MT-3: the set is downward directed.
    MT-1 and MT-2 say that the complement is hereditary saturated, and
    then MT-3 that the set is an M(w), w a common descendant in it: the
    set is a closed tail (``_Masks.tails``).
    """
    vs = g.require_vertices(subset)
    if not vs:
        raise GraphError("maximal tails are non-empty")
    return g._masks.of(vs) in g._masks.tails
