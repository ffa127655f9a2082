"""Cycle-level structure: simple cycles, exits, Conditions (L) and (K).

Cycles range over named edges only: an omega bundle stands for
infinitely many anonymous edges, so it is never returned as a cycle or
a witness.  Bundles supply exits, and they count in the reachability
that decides "without K": a bundle that closes a cycle through a vertex
(a self bundle, or a bundle u -> w where w reaches u) puts that vertex
on infinitely many cycles, so no cycle through it is without K.
"""

from __future__ import annotations

from collections import Counter
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
    Raises ResourceCapError when more than ``cap`` cycles exist.  The
    first complete search is kept on the graph and answers every later
    call on it, checked against its cap.
    """
    if g._simple_cycles is not None:
        if len(g._simple_cycles) > cap:
            raise ResourceCapError(f"more than {cap} simple cycles")
        return list(g._simple_cycles)
    found: list[Cycle] = []
    stepping_up = {e.src for e in g.edges if e.dst > e.src}
    for base in g.vertices:
        inside = set()
        if base in stepping_up:
            masks = g._masks
            inside = set(masks.members(masks.reaching_above(masks.index[base])))
        _grow_cycles(g, cap, found, base, base, [], [base], inside)
    found.sort(key=lambda c: c.edges)
    object.__setattr__(g, "_simple_cycles", tuple(found))
    return found


def _grow_cycles(g, cap, found, base, v, edge_acc, vert_acc, inside) -> None:
    """Extend the path ending at ``v`` by each out-edge: an edge back to
    ``base`` closes a cycle, one to a vertex of ``inside`` (those above
    ``base`` that reach it, less the path) recurses.  Module-level rather
    than a closure that refers to itself, so the cycles found are freed
    by reference counting, not left to the cyclic garbage collector."""
    for e in g._out_edges[v]:
        if e.dst == base:
            if len(found) >= cap:
                raise ResourceCapError(f"more than {cap} simple cycles")
            found.append(Cycle(tuple(edge_acc + [e.id]), tuple(vert_acc)))
        elif e.dst in inside:
            inside.remove(e.dst)
            edge_acc.append(e.id)
            vert_acc.append(e.dst)
            _grow_cycles(g, cap, found, base, e.dst, edge_acc, vert_acc, inside)
            vert_acc.pop()
            edge_acc.pop()
            inside.add(e.dst)


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


def _has_exit_unchecked(g: DirectedGraph, c: Cycle) -> bool:
    """Some vertex of c emits a bundle or a second named edge."""
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


def condition_L(g: DirectedGraph, cap: int = DEFAULT_CAP) -> ConditionReport:
    """Every cycle has an exit; witness is the first exitless cycle otherwise."""
    for c in simple_cycles(g, cap):
        if not _has_exit_unchecked(g, c):
            return ConditionReport(False, c)
    return ConditionReport(True)


def cycles_without_K(g: DirectedGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """The simple cycles none of whose vertices lies on a second cycle.

    Only a base that starts exactly one enumerated cycle can qualify (a
    base of two cycles lies on two), and each such base is tested once
    by ``_on_one_cycle``.
    """
    cycles = simple_cycles(g, cap)
    starts = Counter(c.base for c in cycles)
    return [c for c in cycles if starts[c.base] == 1 and _on_one_cycle(g, c.base)]


def _is_cycle_without_K(g: DirectedGraph, c: Cycle) -> bool:
    """``c in cycles_without_K(g)``, decided without enumerating cycles."""
    return _cycle_in_graph(g, c) and _on_one_cycle(g, c.base)


def _on_one_cycle(g: DirectedGraph, v: str) -> bool:
    """True iff v, a vertex on a named cycle, lies on no other cycle.

    Every cycle through v stays in v's strongly connected component, its
    descendants that are also its ancestors.  That is one cycle exactly
    when it holds as many arrows (edges and bundles) as vertices, and the
    cycle is then v's named one: a bundle inside always makes too many.
    """
    masks = g._masks
    i = masks.index[v]
    component = masks.descendants[i] & masks.ancestors[i]
    arrows = [a for u in masks.members(component) for a in g.out_edges(u) + g.out_bundles(u)]
    return sum(component >> masks.index[a.dst] & 1 for a in arrows) == component.bit_count()


def condition_K(g: DirectedGraph, cap: int = DEFAULT_CAP) -> ConditionReport:
    """Holds iff the graph has no cycle without K."""
    bad = cycles_without_K(g, cap)
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
