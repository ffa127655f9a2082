"""Finitely presented directed graphs with symbolic infinite emitters.

A graph is given by named vertices, named edges, and "omega bundles": a
bundle (src, dst) stands for countably many anonymous parallel edges from
src to dst, which is how a vertex emitting infinitely many edges is
presented finitely.  Bundle edges count for reachability and for vertex
classification, but they are anonymous: they can never occur in a path,
a cycle, or an algebra monomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class GraphError(ValueError):
    """Invalid graph data or a violated graph-level precondition."""


class GraphFormatError(GraphError):
    """A graph JSON document that does not conform to the input format."""


class UnknownVertexError(GraphError):
    """A vertex id that the graph does not declare."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured cap."""


# The default bound on simple cycles and on hereditary saturated sets alike.
DEFAULT_CAP = 1_000_000


class VertexKind(Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite_emitter"


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class OmegaBundle:
    src: str
    dst: str


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable validated graph; all queries are pure.

    Vertices, edges and bundles are kept in a canonical order (sorted by
    id, respectively by (src, dst)), so equality is independent of the
    order in which the parts were supplied.  What is derived from them
    (the reachability index, H_E, the simple cycles) is kept on the
    graph once complete, out of equality and hashing.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...] = ()
    omega_bundles: tuple[OmegaBundle, ...] = ()

    def __post_init__(self):
        # Ids of mixed types cannot be sorted: reject non-strings first.
        for v in self.vertices:
            if not isinstance(v, str):
                raise GraphError(f"vertex id must be a non-empty string, got {v!r}")
        for e in self.edges:
            if not isinstance(e.id, str):
                raise GraphError(f"edge id must be a non-empty string, got {e.id!r}")
        for b in self.omega_bundles:
            for endpoint in (b.src, b.dst):
                if not isinstance(endpoint, str):
                    raise GraphError(f"omega bundle uses undeclared vertex {endpoint!r}")
        vertices = tuple(sorted(self.vertices))
        edges = tuple(sorted(self.edges, key=lambda e: e.id))
        bundles = tuple(sorted(self.omega_bundles, key=lambda b: (b.src, b.dst)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "omega_bundles", bundles)
        self._validate()
        out_edges: dict[str, list[Edge]] = {v: [] for v in vertices}
        out_bundles: dict[str, list[OmegaBundle]] = {v: [] for v in vertices}
        for e in edges:
            out_edges[e.src].append(e)
        for b in bundles:
            out_bundles[b.src].append(b)
        object.__setattr__(self, "_out_edges", {v: tuple(es) for v, es in out_edges.items()})
        object.__setattr__(self, "_out_bundles", {v: tuple(bs) for v, bs in out_bundles.items()})
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in edges})
        # The sorted simple cycles, once a search has found them all.
        object.__setattr__(self, "_simple_cycles", None)

    def _validate(self):
        if not self.vertices:
            raise GraphError("graph must declare at least one vertex")
        seen_v: set[str] = set()
        for v in self.vertices:
            if not v:
                raise GraphError(f"vertex id must be a non-empty string, got {v!r}")
            if v in seen_v:
                raise GraphError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e: set[str] = set()
        for e in self.edges:
            if not e.id:
                raise GraphError(f"edge id must be a non-empty string, got {e.id!r}")
            if e.id in seen_e:
                raise GraphError(f"duplicate edge id {e.id!r}")
            seen_e.add(e.id)
            for endpoint in (e.src, e.dst):
                if not isinstance(endpoint, str) or endpoint not in seen_v:
                    raise GraphError(f"edge {e.id!r} uses undeclared vertex {endpoint!r}")
        seen_b: set[tuple[str, str]] = set()
        for b in self.omega_bundles:
            for endpoint in (b.src, b.dst):
                if endpoint not in seen_v:
                    raise GraphError(f"omega bundle uses undeclared vertex {endpoint!r}")
            if (b.src, b.dst) in seen_b:
                raise GraphError(f"duplicate omega bundle ({b.src!r}, {b.dst!r})")
            seen_b.add((b.src, b.dst))

    @classmethod
    def from_parts(cls, vertices, edges=(), omega_bundles=()) -> "DirectedGraph":
        """Build from plain tuples: edges (id, src, dst), bundles (src, dst)."""
        return cls(
            tuple(vertices),
            tuple(Edge(*e) for e in edges),
            tuple(OmegaBundle(*b) for b in omega_bundles),
        )

    # -- queries -------------------------------------------------------

    def require_vertex(self, v: str) -> None:
        if v not in self._out_edges:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def require_vertices(self, vs) -> frozenset[str]:
        vs = frozenset(vs)
        for v in vs:
            self.require_vertex(v)
        return vs

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}") from None

    def has_edge_id(self, edge_id: str) -> bool:
        return edge_id in self._edge_by_id

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return self._out_edges[v]

    def out_bundles(self, v: str) -> tuple[OmegaBundle, ...]:
        self.require_vertex(v)
        return self._out_bundles[v]

    def vertex_kind(self, v: str) -> VertexKind:
        """Sink, regular vertex, or infinite emitter; exactly one applies."""
        self.require_vertex(v)
        if self._out_bundles[v]:
            return VertexKind.INFINITE_EMITTER
        if self._out_edges[v]:
            return VertexKind.REGULAR
        return VertexKind.SINK

    @cached_property
    def _masks(self) -> _Masks:
        """The reachability index, built on first use."""
        return _Masks(self)

    def descendants(self, v: str) -> frozenset[str]:
        """All vertices reachable from v, including v itself."""
        self.require_vertex(v)
        return self._masks.to_set(self._masks.descendants[self._masks.index[v]])

    def reaches(self, u: str, v: str) -> bool:
        """True iff there is a directed path (length >= 0) from u to v."""
        self.require_vertex(v)
        self.require_vertex(u)
        return bool(self._masks.descendants[self._masks.index[u]] >> self._masks.index[v] & 1)

    def m_of(self, v: str) -> frozenset[str]:
        """All vertices that reach v (v itself included)."""
        self.require_vertex(v)
        return self._masks.to_set(self._masks.ancestors[self._masks.index[v]])


class _Masks:
    """A graph's reachability index, with vertex sets as int bitmasks.
    Bit i stands for ``vertices[i]``, the ids in descending order, so that
    of two sets of one size the larger mask has the smaller sorted ids.
    Vertex i reaches ``descendants[i]`` and is reached from
    ``ancestors[i]`` (its M(v)); both hold i.  ``closed_sets`` holds the
    masks of H_E once ``enumerate_HE`` has walked them all."""

    def __init__(self, g: DirectedGraph):
        self.vertices = g.vertices[::-1]
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.full = (1 << len(self.vertices)) - 1
        self.successors, self.predecessors = [0] * len(self.vertices), [0] * len(self.vertices)
        for arrow in g.edges + g.omega_bundles:
            self.successors[self.index[arrow.src]] |= 1 << self.index[arrow.dst]
            self.predecessors[self.index[arrow.dst]] |= 1 << self.index[arrow.src]
        self.descendants, self.ancestors = _reach(self.successors), _reach(self.predecessors)
        self.regular = self.of(v for v in self.vertices if g._out_edges[v] and not g._out_bundles[v])
        self.closed_sets: frozenset[int] | None = None

    def of(self, subset) -> int:
        out = 0
        for v in subset:
            out |= 1 << self.index[v]
        return out

    def members(self, mask: int):
        """The vertex ids of a mask, one per set bit, lowest bit first."""
        while mask:
            low = mask & -mask
            yield self.vertices[low.bit_length() - 1]
            mask ^= low

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
        """The hereditary saturated closure of a vertex mask.  A mask is
        hereditary, saturated or both exactly when the matching closure
        returns it unchanged."""
        return self.saturate(self.hereditary(mask))

    def saturate(self, closed: int) -> int:
        """The saturation of a vertex mask, hereditary if the mask is.

        A regular vertex joins once all its successors, the targets of
        its named edges, lie inside, and is checked again only when one
        of them joins.  A hereditary set stays hereditary, because all
        of them land inside.
        """
        pending = self.regular & ~closed
        while pending:
            low = pending & -pending
            pending ^= low
            i = low.bit_length() - 1
            if not self.successors[i] & ~closed:
                closed |= low
                pending |= self.predecessors[i] & self.regular & ~closed
        return closed

    def reaching_above(self, i: int) -> int:
        """The vertices with ids above vertex i's, bits 0..i-1, that reach
        it through such vertices."""
        return _walk(self.predecessors, i, (2 << i) - 1) & ~(1 << i)


def _reach(steps: list[int]) -> list[int]:
    """Entry i: each vertex that a walk along ``steps`` from vertex i meets."""
    out = [0] * len(steps)
    for i in range(len(steps)):
        rest = 1 << i
        while rest:
            j = (rest & -rest).bit_length() - 1
            if not out[j]:  # not done before: walk on from it
                rest |= steps[j]
            out[i] |= out[j] or 1 << j  # done before: its whole entry
            rest &= ~out[i]
    return out


def _walk(steps: list[int], i: int, within: int) -> int:
    """Each vertex that a walk along ``steps`` from vertex i meets without
    leaving ``within``, which holds i."""
    seen = rest = 1 << i
    while rest:
        low = rest & -rest
        rest ^= low
        new = steps[low.bit_length() - 1] & within & ~seen
        seen |= new
        rest |= new
    return seen


def parse_graph(text: str) -> DirectedGraph:
    """Parse and validate a graph JSON document (strict: unknown keys error)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level value must be an object")
    allowed = {"vertices", "edges", "omega_bundles"}
    unknown = set(doc) - allowed
    if unknown:
        raise GraphFormatError(f"unknown keys {sorted(unknown)!r}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing required key {key!r}")

    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError('"vertices" must be a list of strings')

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list')
    edges = []
    for item in raw_edges:
        edges.append(Edge(**_strict_object(item, ("id", "src", "dst"), "edge")))

    raw_bundles = doc.get("omega_bundles", [])
    if not isinstance(raw_bundles, list):
        raise GraphFormatError('"omega_bundles" must be a list')
    bundles = []
    for item in raw_bundles:
        bundles.append(OmegaBundle(**_strict_object(item, ("src", "dst"), "omega bundle")))

    try:
        return DirectedGraph(tuple(vertices), tuple(edges), tuple(bundles))
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from None


def _strict_object(item, keys, what) -> dict:
    if not isinstance(item, dict):
        raise GraphFormatError(f"each {what} must be an object")
    unknown = set(item) - set(keys)
    if unknown:
        raise GraphFormatError(f"{what} has unknown keys {sorted(unknown)!r}")
    out = {}
    for key in keys:
        if key not in item:
            raise GraphFormatError(f"{what} is missing key {key!r}")
        value = item[key]
        if not isinstance(value, str):
            raise GraphFormatError(f"{what} key {key!r} must be a string")
        out[key] = value
    return out


def graph_to_json_dict(g: DirectedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
        "omega_bundles": [{"src": b.src, "dst": b.dst} for b in g.omega_bundles],
    }


def serialize_graph(g: DirectedGraph) -> str:
    """Canonical JSON for g; parse_graph(serialize_graph(g)) == g."""
    return json.dumps(graph_to_json_dict(g), indent=2) + "\n"
