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
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii


class GraphError(ValueError):
    """Invalid graph data or a violated graph-level precondition."""


class GraphFormatError(GraphError):
    """A graph JSON document that does not conform to the input format."""


class UnknownVertexError(GraphError):
    """A vertex id that the graph does not declare."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured cap."""


# The default bound on the hereditary saturated sets that one walk of H_E finds.
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
    (the reachability index, H_E, the primes) is kept on the graph once
    complete, out of equality and hashing.
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

    def m_of(self, v: str) -> frozenset[str]:
        """All vertices that reach v (v itself included)."""
        self.require_vertex(v)
        return self._masks.to_set(self._masks.ancestors[self._masks.index[v]])


class _Masks:
    """A graph's reachability index, with vertex sets as int bitmasks.
    Bit i stands for ``vertices[i]``, the ids in descending order, so that
    of two sets of one size the larger mask has the smaller sorted ids.
    Vertex i reaches ``descendants[i]`` and is reached from
    ``ancestors[i]`` (its M(v)); both hold i.  Two facts derived once per
    graph are kept here, each once it is complete, and neither refers
    back to the graph, so the graph is freed by reference counting:

    - ``closed_sets``: the masks of H_E, once ``enumerate_HE`` has walked
      them all;
    - ``primes``: the prime rows, ``(H, S)`` for a graded prime and
      ``(H, cycle)`` for a family, once ``ideals.enumerate_primes`` has
      listed them.

    A call that refuses on a cap keeps nothing, and every later call
    passes ``enumerate_HE``, which checks its caps against the kept
    walk, before it reads a kept fact."""

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
        self.primes: tuple[tuple, ...] | None = None

    def of(self, subset) -> int:
        out = 0
        for v in subset:
            out |= 1 << self.index[v]
        return out

    def ids(self, mask: int) -> list[str]:
        """The vertex ids of a mask in ascending order: read from the
        highest bit down, as the ids are stored in descending order."""
        out = []
        while mask:
            i = mask.bit_length() - 1
            out.append(self.vertices[i])
            mask ^= 1 << i
        return out

    def to_set(self, mask: int) -> frozenset[str]:
        return frozenset(self.ids(mask))

    @staticmethod
    def in_order(masks) -> list[int]:
        """The masks ordered by size, then by their sorted ids: the larger
        mask first, as the sort by size keeps that order among equals."""
        return sorted(sorted(masks, reverse=True), key=int.bit_count)

    def sorted_sets(self, masks) -> tuple[frozenset[str], ...]:
        """The masks as vertex sets, in ``in_order``."""
        return tuple(map(self.to_set, self.in_order(masks)))

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

    def grow(self, closed: int, i: int) -> int:
        """The hereditary saturated closure of a closed mask with vertex i
        added, computed from the mask.

        The mask is hereditary, so the OR with i's descendants is too.  It
        is saturated, so each regular vertex outside it has a successor
        outside it; such a vertex can join only if that successor was
        just added.  Saturation therefore checks first only the
        predecessors of the added vertices.
        """
        added = self.descendants[i] & ~closed
        closed |= added
        feeders = 0
        while added:
            low = added & -added
            added ^= low
            feeders |= self.predecessors[low.bit_length() - 1]
        return self.saturate(closed, feeders)

    def saturate(self, closed: int, candidates: int = -1) -> int:
        """The saturation of a vertex mask, hereditary if the mask is.

        A regular vertex joins once all its successors, the targets of
        its named edges, lie inside, and is checked again only when one
        of them joins.  A hereditary set stays hereditary, because all
        of them land inside.  Only the vertices in ``candidates`` (all
        by default) are checked first; the caller vouches that no other
        vertex outside the mask is yet ready to join.
        """
        pending = self.regular & ~closed & candidates
        while pending:
            low = pending & -pending
            pending ^= low
            i = low.bit_length() - 1
            if not self.successors[i] & ~closed:
                closed |= low
                pending |= self.predecessors[i] & self.regular & ~closed
        return closed


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
    edges = [Edge(*row) for row in _strict_objects(raw_edges, ("id", "src", "dst"), "edge")]

    raw_bundles = doc.get("omega_bundles", [])
    if not isinstance(raw_bundles, list):
        raise GraphFormatError('"omega_bundles" must be a list')
    bundles = [OmegaBundle(*row) for row in _strict_objects(raw_bundles, ("src", "dst"), "omega bundle")]

    try:
        return DirectedGraph(tuple(vertices), tuple(edges), tuple(bundles))
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from None


def _strict_objects(items: list, keys: tuple[str, ...], what: str) -> list[tuple[str, ...]]:
    """The values of ``keys`` in each item, every item a JSON object with
    exactly those keys, each a string.  A document of such items, nearly
    every document, is checked in bulk: each item has the keys (a JSON
    value other than an object has none) and no more, and each value is a
    string.  Otherwise each item is checked in turn, in the order that
    picks the error message."""
    try:
        rows = list(map(operator.itemgetter(*keys), items))
    except (KeyError, TypeError):
        rows = None
    if rows is not None and {len(item) for item in items} <= {len(keys)}:
        if {type(value) for row in rows for value in row} <= {str}:
            return rows
    return [_strict_object(item, keys, what) for item in items]


def _strict_object(item, keys, what) -> tuple[str, ...]:
    if not isinstance(item, dict):
        raise GraphFormatError(f"each {what} must be an object")
    unknown = set(item) - set(keys)
    if unknown:
        raise GraphFormatError(f"{what} has unknown keys {sorted(unknown)!r}")
    for key in keys:
        if key not in item:
            raise GraphFormatError(f"{what} is missing key {key!r}")
        if not isinstance(item[key], str):
            raise GraphFormatError(f"{what} key {key!r} must be a string")
    return tuple(item[key] for key in keys)


_EDGE_JSON = '{\n      "id": %s,\n      "src": %s,\n      "dst": %s\n    }'
_BUNDLE_JSON = '{\n      "src": %s,\n      "dst": %s\n    }'


def serialize_graph(g: DirectedGraph) -> str:
    """Canonical JSON for g; parse_graph(serialize_graph(g)) == g.

    The text is what ``json.dumps`` with an indent of 2 gives for
    ``{"vertices": [...], "edges": [{"id", "src", "dst"}...],
    "omega_bundles": [{"src", "dst"}...]}``, byte for byte, with each
    string written by the stdlib's C encoder: its indenting encoder is
    pure Python.
    """
    s = encode_basestring_ascii
    return '{\n  "vertices": %s,\n  "edges": %s,\n  "omega_bundles": %s\n}\n' % (
        _json_list([s(v) for v in g.vertices]),
        _json_list([_EDGE_JSON % (s(e.id), s(e.src), s(e.dst)) for e in g.edges]),
        _json_list([_BUNDLE_JSON % (s(b.src), s(b.dst)) for b in g.omega_bundles]),
    )


def _json_list(items: list[str]) -> str:
    """A JSON list of written items, as the value of a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
