"""Cycle-level structure: simple cycles, exits, Conditions (L) and (K).

Cycles range over named edges only: an omega bundle stands for
infinitely many anonymous edges, so it is never returned as a cycle or
a witness.  Bundles supply exits, and they count in the reachability
that decides "without K": a bundle that closes a cycle through a vertex
(a self bundle, or a bundle u -> w where w reaches u) puts that vertex
on infinitely many cycles, so no cycle through it is without K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DEFAULT_CAP, DirectedGraph, GraphError, ResourceCapError
from .lattice import _is_hereditary_saturated


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
    return _rotated(edge_ids, sources)


def _rotated(edge_ids, sources) -> Cycle:
    """The cycle of these edges, ``sources[i]`` the source of
    ``edge_ids[i]``, rotated to start at its least vertex."""
    k = sources.index(min(sources))
    return Cycle(tuple(edge_ids[k:] + edge_ids[:k]), tuple(sources[k:] + sources[:k]))


def simple_cycles(g: DirectedGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """All simple cycles over named edges, deduplicated up to rotation.

    Enumerates cycles rooted at their least vertex, so each cycle is
    produced exactly once and already in canonical rotation.  A cycle
    rooted at ``base`` stays in base's strongly connected component among
    the vertices from ``base`` up (the restriction of Johnson's
    algorithm, without its blocked sets).  The paths from ``base`` only
    meet vertices that base reaches, so they grow only among those that
    reach base back, and not at all from a base with no edge up.
    Raises ResourceCapError when more than ``cap`` cycles exist.  No
    command calls it: the conditions and the primes read their cycles
    off the graph's components.
    """
    found: list[Cycle] = []
    stepping_up = {e.src for e in g.edges if e.dst > e.src}
    for base in g.vertices:
        inside = set()
        if base in stepping_up:
            masks = g._masks
            inside = set(masks.members(masks.reaching_above(masks.index[base])))
        _grow_cycles(g, cap, found, base, inside)
    found.sort(key=lambda c: c.edges)
    return found


def _grow_cycles(g, cap, found, base, inside) -> None:
    """Grow every simple path from ``base`` by each out-edge of its last
    vertex: an edge back to ``base`` closes a cycle, one to a vertex of
    ``inside`` (those above ``base`` that reach it, less the path)
    extends the path.  The path and the out-edges left at each of its
    vertices are kept on explicit stacks, so a path may be longer than
    the interpreter's recursion limit."""
    edge_acc: list[str] = []
    vert_acc = [base]
    pending = [iter(g._out_edges[base])]
    while pending:
        for e in pending[-1]:
            if e.dst == base:
                if len(found) >= cap:
                    raise ResourceCapError(f"more than {cap} simple cycles")
                found.append(Cycle(tuple(edge_acc + [e.id]), tuple(vert_acc)))
            elif e.dst in inside:
                inside.remove(e.dst)
                edge_acc.append(e.id)
                vert_acc.append(e.dst)
                pending.append(iter(g._out_edges[e.dst]))
                break
        else:
            pending.pop()
            if edge_acc:
                edge_acc.pop()
                inside.add(vert_acc.pop())


def _cycle_in_graph(g: DirectedGraph, c: Cycle) -> bool:
    try:
        return make_cycle(g, c.edges) == c
    except GraphError:
        return False


def has_exit(g: DirectedGraph, c: Cycle) -> bool:
    """True iff some vertex of c emits a named edge not on c, or any bundle."""
    if not _cycle_in_graph(g, c):
        raise GraphError("cycle does not belong to this graph")
    for eid, v in zip(c.edges, c.vertices):
        if g.out_bundles(v) or any(e.id != eid for e in g.out_edges(v)):
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


def condition_L(g: DirectedGraph) -> ConditionReport:
    """Every cycle has an exit; witness is the first exitless cycle otherwise."""
    exitless = _exitless_cycles(g)
    if exitless:
        return ConditionReport(False, exitless[0])
    return ConditionReport(True)


def _exitless_cycles(g: DirectedGraph) -> list[Cycle]:
    """The cycles without an exit, sorted by edge tuple.

    Each vertex of an exitless cycle emits one named edge and no bundle,
    and the cycles of the map that sends each such vertex along its one
    edge are exactly the exitless cycles.  A walk along that map from
    each vertex, stopped at the first vertex walked before, closes each
    of them once.
    """
    step = {v: es[0] for v, es in g._out_edges.items() if len(es) == 1 and not g._out_bundles[v]}
    walked: dict[str, str] = {}
    found = []
    for start in step:
        v = start
        while v in step and v not in walked:
            walked[v] = start
            v = step[v].dst
        if walked.get(v) == start:  # this walk closed on itself
            found.append(_cycle_along(step, v))
    found.sort(key=lambda c: c.edges)
    return found


def cycles_without_K(g: DirectedGraph) -> list[Cycle]:
    """The simple cycles none of whose vertices lies on a second cycle,
    sorted by edge tuple: one for each strongly connected component that
    is a cycle of named edges (``_component_cycle``).  The component of
    vertex i is read off the index, ``descendants[i] & ancestors[i]``."""
    masks = g._masks
    found = []
    seen = 0
    for i in range(len(masks.vertices)):
        if not seen >> i & 1:
            component = masks.descendants[i] & masks.ancestors[i]
            seen |= component
            c = _component_cycle(g, set(masks.members(component)))
            if c is not None:
                found.append(c)
    found.sort(key=lambda c: c.edges)
    return found


def _is_cycle_without_K(g: DirectedGraph, c: Cycle) -> bool:
    """``c in cycles_without_K(g)``, decided on the component of c alone."""
    if not _cycle_in_graph(g, c):
        return False
    masks = g._masks
    i = masks.index[c.base]
    return _component_cycle(g, set(masks.members(masks.descendants[i] & masks.ancestors[i]))) == c


def _component_cycle(g: DirectedGraph, component: set[str]) -> Cycle | None:
    """The one cycle of a strongly connected component, or None when the
    component is not a single cycle of named edges.

    Every cycle through a vertex stays in its component, so a cycle
    whose vertices lie on no other cycle is a whole component.  A
    component is one cycle exactly when each vertex sends one arrow
    (edge or bundle) into it, and the cycle has a name only when those
    arrows are all edges: a bundle inside always makes infinitely many
    cycles.
    """
    step = {}
    for u in component:
        if any(b.dst in component for b in g._out_bundles[u]):
            return None
        inside = [e for e in g._out_edges[u] if e.dst in component]
        if len(inside) != 1:
            return None
        step[u] = inside[0]
    return _cycle_along(step, u)


def _cycle_along(step: dict, v: str) -> Cycle:
    """The cycle that following ``step`` (a vertex's one edge) from v
    closes, in canonical rotation."""
    edge_ids, sources = [step[v].id], [v]
    u = step[v].dst
    while u != v:
        edge_ids.append(step[u].id)
        sources.append(u)
        u = step[u].dst
    return _rotated(edge_ids, sources)


def condition_K(g: DirectedGraph) -> ConditionReport:
    """Holds iff the graph has no cycle without K."""
    bad = cycles_without_K(g)
    if bad:
        return ConditionReport(False, bad[0])
    return ConditionReport(True)


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
    then MT-3 that the set is an M(w), w a common descendant in it.
    """
    vs = g.require_vertices(subset)
    if not vs:
        raise GraphError("maximal tails are non-empty")
    complement_closed = _is_hereditary_saturated(g, frozenset(g.vertices) - vs)
    return complement_closed and g._masks.of(vs) in g._masks.ancestors
