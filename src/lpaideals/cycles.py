"""Cycle-level structure: simple cycles, exits, Conditions (L) and (K).

Cycles range over named edges only.  A self bundle (an omega bundle with
src == dst) stands for infinitely many anonymous loops: it is never
returned as a cycle, but it supplies exits and it prevents any named
cycle through its vertex from being a "cycle without K".  Bundles
between distinct vertices contribute exits and reachability but no
cycles; this is a documented presentation restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DEFAULT_CAP, DirectedGraph, GraphError, ResourceCapError, VertexKind


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
    k = sources.index(min(sources))
    return Cycle(tuple(edge_ids[k:] + edge_ids[:k]), tuple(sources[k:] + sources[:k]))


def simple_cycles(g: DirectedGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """All simple cycles over named edges, deduplicated up to rotation.

    Enumerates cycles rooted at their least vertex (larger vertices only
    on the way), so each cycle is produced exactly once and already in
    canonical rotation.  Raises ResourceCapError when more than ``cap``
    cycles exist.
    """
    found: list[Cycle] = []
    for base in g.vertices:
        _grow_cycles(g, cap, found, base, base, [], [base], {base})
    found.sort(key=lambda c: c.edges)
    return found


def _grow_cycles(g, cap, found, base, v, edge_acc, vert_acc, visited) -> None:
    """Extend the path ending at ``v`` by each out-edge: an edge back to
    ``base`` closes a cycle, one to an unvisited vertex above ``base``
    recurses.  Module-level rather than a closure that refers to itself,
    so the cycles found are freed by reference counting, not left to the
    cyclic garbage collector."""
    for e in g.out_edges(v):
        if e.dst == base:
            if len(found) >= cap:
                raise ResourceCapError(f"more than {cap} simple cycles")
            found.append(Cycle(tuple(edge_acc + [e.id]), tuple(vert_acc)))
        elif e.dst > base and e.dst not in visited:
            visited.add(e.dst)
            edge_acc.append(e.id)
            vert_acc.append(e.dst)
            _grow_cycles(g, cap, found, base, e.dst, edge_acc, vert_acc, visited)
            vert_acc.pop()
            edge_acc.pop()
            visited.remove(e.dst)


def _cycle_in_graph(g: DirectedGraph, c: Cycle) -> bool:
    try:
        return make_cycle(g, c.edges) == c
    except GraphError:
        return False


def has_exit(g: DirectedGraph, c: Cycle) -> bool:
    """True iff some vertex of c emits a named edge not on c, or any bundle."""
    if not _cycle_in_graph(g, c):
        raise GraphError("cycle does not belong to this graph")
    return _has_exit_unchecked(g, c)


def _has_exit_unchecked(g: DirectedGraph, c: Cycle, hset: frozenset[str] = frozenset()) -> bool:
    """Some bundle or named edge not on c leaves c and lands outside ``hset``."""
    for eid, v in zip(c.edges, c.vertices):
        if any(b.dst not in hset for b in g.out_bundles(v)):
            return True
        if any(e.id != eid and e.dst not in hset for e in g.out_edges(v)):
            return True
    return False


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witness: Cycle | None = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the condition fails")

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness.edges),
        }


def condition_L(g: DirectedGraph, cap: int = DEFAULT_CAP) -> ConditionReport:
    """Every cycle has an exit; witness is the first exitless cycle otherwise."""
    for c in simple_cycles(g, cap):
        if not _has_exit_unchecked(g, c):
            return ConditionReport(False, c)
    return ConditionReport(True)


def cycles_without_K(g: DirectedGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """Cycles none of whose vertices lies on a second distinct cycle.

    A vertex carrying a self bundle lies on infinitely many anonymous
    loops, so no cycle through it qualifies.
    """
    cycles = simple_cycles(g, cap)
    count: dict[str, int] = {}
    for c in cycles:
        for v in c.vertices:
            count[v] = count.get(v, 0) + 1
    return [
        c
        for c in cycles
        if all(count[v] == 1 and not g.has_self_bundle(v) for v in c.vertices)
    ]


def _is_cycle_without_K(g: DirectedGraph, c: Cycle) -> bool:
    """``c in cycles_without_K(g)``, decided without enumerating cycles.

    A vertex of c lies on a second cycle exactly when the named edges
    among c's vertices are more than c's own, or when the strongly
    connected component of c (over named edges) is larger than its
    vertex set: a way out of c and back in closes a second cycle.  Both
    are checked in O(V + E), from forward and backward reachability.
    """
    if not _cycle_in_graph(g, c):
        return False
    on_cycle = set(c.vertices)
    if any(g.has_self_bundle(v) for v in on_cycle):
        return False
    if sum(e.dst in on_cycle for v in on_cycle for e in g.out_edges(v)) != len(c):
        return False
    incoming: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        incoming[e.dst].append(e.src)
    forward = _reach(c.base, lambda v: [e.dst for e in g.out_edges(v)])
    backward = _reach(c.base, incoming.__getitem__)
    return forward & backward == on_cycle


def _reach(start: str, step) -> set[str]:
    """The vertices reachable from ``start`` along ``step`` (start included)."""
    seen = {start}
    stack = [start]
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def condition_K(g: DirectedGraph, cap: int = DEFAULT_CAP) -> ConditionReport:
    """Holds iff the graph has no cycle without K."""
    bad = cycles_without_K(g, cap)
    if bad:
        return ConditionReport(False, bad[0])
    return ConditionReport(True)


def is_downward_directed(g: DirectedGraph, subset) -> bool:
    """True iff any two vertices of the subset share a descendant inside it."""
    vs = g.require_vertices(subset)
    if not vs:
        raise GraphError("downward directedness is defined for non-empty sets")
    for u in vs:
        du = g.descendants(u)
        for v in vs:
            if not (du & g.descendants(v) & vs):
                return False
    return True


def is_maximal_tail(g: DirectedGraph, subset) -> bool:
    """Checks the three maximal-tail conditions for a non-empty vertex set.

    MT-1: ancestors of members are members.  MT-2: every regular member
    keeps an edge inside the set (bundle targets counted).  MT-3: the
    set is downward directed.
    """
    vs = g.require_vertices(subset)
    if not vs:
        raise GraphError("maximal tails are non-empty")
    for v in vs:
        if not g.m_of(v) <= vs:
            return False
    for v in vs:
        if g.vertex_kind(v) is VertexKind.REGULAR and not (g.successors(v) & vs):
            return False
    return is_downward_directed(g, vs)
