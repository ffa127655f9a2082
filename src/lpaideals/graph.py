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
from collections import namedtuple
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

# The default bound on the vertices of a graph whose H_E is enumerated exactly.
MAX_EXACT_VERTICES = 20


class VertexKind(Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite_emitter"


# Plain records: DirectedGraph checks them.  Each equals the tuple of its fields.
Edge = namedtuple("Edge", "id src dst")
OmegaBundle = namedtuple("OmegaBundle", "src dst")


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable validated graph; all queries are pure.

    Vertices, edges and bundles are kept in a canonical order (sorted by
    id, respectively by (src, dst)), so equality is independent of the
    order in which the parts were supplied.  What is derived from them
    (the reachability index, H_E, the primes per closed tail) is kept on
    the graph once complete, out of equality and hashing.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...] = ()
    omega_bundles: tuple[OmegaBundle, ...] = ()

    def __post_init__(self):
        # Ids of mixed types cannot be sorted: check each part and its types first.
        _collection(self.vertices, "vertices", "ids")
        for v in self.vertices:
            if not isinstance(v, str):
                raise GraphError(f"vertex id must be a non-empty string, got {v!r}")
        _collection(self.edges, "edges", "Edge records")
        for e in self.edges:
            if not isinstance(e, Edge):
                raise GraphError(f"an edge must be an Edge record, got {e!r}")
            if not isinstance(e.id, str):
                raise GraphError(f"edge id must be a non-empty string, got {e.id!r}")
        _collection(self.omega_bundles, "omega bundles", "OmegaBundle records")
        for b in self.omega_bundles:
            if not isinstance(b, OmegaBundle):
                raise GraphError(f"an omega bundle must be an OmegaBundle record, got {b!r}")
            for endpoint in (b.src, b.dst):
                if not isinstance(endpoint, str):
                    raise GraphError(f"omega bundle uses undeclared vertex {endpoint!r}")
        vertices = tuple(sorted(self.vertices))
        edges = tuple(sorted(self.edges, key=lambda e: e.id))
        bundles = tuple(sorted(self.omega_bundles, key=lambda b: (b.src, b.dst)))
        if not vertices:
            raise GraphError("graph must declare at least one vertex")
        out_edges: dict[str, list[Edge]] = {}
        out_bundles: dict[str, list[OmegaBundle]] = {}
        for v in vertices:
            if not v:
                raise GraphError(f"vertex id must be a non-empty string, got {v!r}")
            if v in out_edges:
                raise GraphError(f"duplicate vertex id {v!r}")
            out_edges[v], out_bundles[v] = [], []
        edge_by_id: dict[str, Edge] = {}
        for e in edges:
            if not e.id:
                raise GraphError(f"edge id must be a non-empty string, got {e.id!r}")
            if e.id in edge_by_id:
                raise GraphError(f"duplicate edge id {e.id!r}")
            for endpoint in (e.src, e.dst):
                if not isinstance(endpoint, str) or endpoint not in out_edges:
                    raise GraphError(f"edge {e.id!r} uses undeclared vertex {endpoint!r}")
            edge_by_id[e.id] = e
            out_edges[e.src].append(e)
        for b in bundles:
            for endpoint in b:
                if endpoint not in out_edges:
                    raise GraphError(f"omega bundle uses undeclared vertex {endpoint!r}")
            twins = out_bundles[b.src]
            if twins and twins[-1] == b:  # in canonical order a twin comes just before
                raise GraphError(f"duplicate omega bundle ({b.src!r}, {b.dst!r})")
            twins.append(b)
        vars(self).update(
            vertices=vertices, edges=edges, omega_bundles=bundles, _edge_by_id=edge_by_id,
            _out_edges={v: tuple(es) for v, es in out_edges.items()},
            _out_bundles={v: tuple(bs) for v, bs in out_bundles.items()},
        )

    @classmethod
    def from_parts(cls, vertices, edges=(), omega_bundles=()) -> "DirectedGraph":
        """Build from plain tuples: edges (id, src, dst), bundles (src, dst)."""
        _collection(vertices, "vertices", "ids")
        return cls(
            tuple(vertices),
            _records(Edge, edges, "edge"),
            _records(OmegaBundle, omega_bundles, "omega bundle"),
        )

    # -- queries -------------------------------------------------------

    def require_vertex(self, v: str) -> None:
        if v not in self._out_edges:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def require_vertices(self, vs) -> frozenset[str]:
        vs = _vertex_set(vs)
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
        return self._masks.to_set(self._masks.hereditary(1 << self._masks.index[v]))

    def m_of(self, v: str) -> frozenset[str]:
        """All vertices that reach v (v itself included)."""
        self.require_vertex(v)
        return self._masks.to_set(self._masks.ancestors[self._masks.index[v]])


def _collection(part, name: str, items: str) -> None:
    """Refuse a part of a graph that is no collection: one str, which is
    not read as its characters, or a value that cannot be iterated."""
    if isinstance(part, str):
        raise GraphError(f"the {name} are a collection of {items}, not the string {part!r}")
    try:
        iter(part)
    except TypeError:
        raise GraphError(f"the {name} are a collection of {items}, not {part!r}") from None


def _records(record, rows, what: str) -> tuple:
    """Plain rows as records; one str is refused, as the part or as a
    row, not read as its characters, and so is a row of another length
    or a part that is no collection."""
    _collection(rows, what + "s", "tuples")
    out = []
    for row in rows:
        try:
            if isinstance(row, str):
                raise TypeError
            out.append(record._make(row))
        except TypeError:
            raise GraphError(f"an {what} must be a tuple ({', '.join(record._fields)}), got {row!r}") from None
    return tuple(out)


def _vertex_set(vs) -> frozenset[str]:
    """A vertex set as a frozenset; one str is refused, not read as its characters."""
    if isinstance(vs, str):
        raise GraphError(f"a vertex set is a collection of ids, not the string {vs!r}")
    return frozenset(vs)


class _Masks:
    """A graph's reachability index, with vertex sets as int bitmasks.
    Bit i stands for ``vertices[i]``, the ids in descending order, so that
    of two sets of one size the larger mask has the smaller sorted ids.
    Vertex i is reached from ``ancestors[i]``, its M(v), which holds i.
    The pass that finds the M(v) (``_reach``) fills ``components``: each
    distinct M(v) maps to a strongly connected component, whose vertices
    hold their M(v) as one int.  Emitter i sends its bundles to ``bundles[i]``.
    The closed tails, the least of them and B_H have one rule each
    (``tails``, ``least_tails``, ``breaking``); the closed tails, which
    decide H_E, are built with the index.  Two facts
    derived once per graph are kept, each once it is complete, and neither
    refers back to the graph, so it is freed by reference counting:

    - ``closed_sets``: the masks of H_E, kept only once walked.  With t
      closed tails |H_E| <= 2^t, so ``lattice.enumerate_HE`` walks at
      the call only when its cap is below 2^t; otherwise the first read
      of the lattice's masks walks, and ``primes`` and ``maximals``,
      which read none, never do;
    - ``by_tail``: for each closed tail T, ``(H, B_H, the graded S of
      T's primes, the cycle without K based in T or None)``, H being E^0
      minus T, once ``ideals._by_tail`` has built it, in the order of the
      reports; the primes and the maximal ideals are both read off it.

    A call that refuses on a cap keeps nothing, and every later call
    passes ``enumerate_HE``, which checks its caps against the kept walk
    or the 2^t bound, before it reads a kept fact."""

    def __init__(self, g: DirectedGraph):
        self.vertices = g.vertices[::-1]
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.full = (1 << len(self.vertices)) - 1
        self.successors, self.predecessors = [0] * len(self.vertices), [0] * len(self.vertices)
        for arrow in g.edges + g.omega_bundles:
            self.successors[self.index[arrow.src]] |= 1 << self.index[arrow.dst]
            self.predecessors[self.index[arrow.dst]] |= 1 << self.index[arrow.src]
        self.ancestors, self.components = _reach(self.predecessors, self.successors)
        self.bundles = {self.index[v]: self.of(b.dst for b in bs) for v, bs in g._out_bundles.items() if bs}
        self.regular = self.of(v for v in self.vertices if g._out_edges[v] and not g._out_bundles[v])
        self.tails = self._closed_tails()
        self.closed_sets: frozenset[int] | None = None
        self.by_tail: dict[int, tuple] | None = None

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

    def texts(self, masks, word, sep: str, opened: str, closed: str, empty: str) -> list[str]:
        """The framed text of each mask, in ``in_order``: ``opened``, its
        ids in ascending order, each written by ``word`` and joined by
        ``sep``, then ``closed``; ``empty`` for the empty mask.  The
        commands pass three frames: ``--json``'s, plain ``hsets``' line
        and plain ``analyze``'s braces.  A mask is read as a high and a low
        half of ceil(n / 2) bits or fewer; the high half holds the smaller
        ids, so its text comes first.  Each distinct high half is written
        once as ``opened`` + ids + ``sep`` and once framed alone, and each
        distinct low half once as ids + ``closed``, so each set is one
        concatenation or one lookup: the 4,096 sets of A_12 have 64 halves
        a side."""
        h = (len(self.vertices) + 1) // 2
        low = (1 << h) - 1
        highs: dict[int, str] = {0: opened}  # a high half -> opened, its ids, sep
        lows: dict[int, str] = {}  # a low half -> its ids, closed
        alone: dict[int, str] = {0: empty}  # a mask with no low half -> its text
        out = []
        for m in self.in_order(masks):
            a, b = m >> h, m & low
            if b:
                head = highs.get(a)
                if head is None:
                    head = highs[a] = opened + sep.join(map(word, self.ids(a << h))) + sep
                tail = lows.get(b)
                if tail is None:
                    tail = lows[b] = sep.join(map(word, self.ids(b))) + closed
                out.append(head + tail)
            else:
                text = alone.get(a)
                if text is None:
                    text = alone[a] = opened + sep.join(map(word, self.ids(a << h))) + closed
                out.append(text)
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

    def _closed_tails(self) -> dict[int, int]:
        """The closed tails: each distinct M(d) whose complement H = E^0
        minus M(d) is hereditary saturated, mapped to the ends of the
        closed tails strictly inside it (the ends of a closed tail are the
        d with that M(d)).  H is hereditary, as an edge from H into M(d)
        would put its source in M(d).  Each w != d in M(d) has a successor
        in M(d), the first step of its path to d, so only d can join H by
        saturation: when it is regular and no successor of d lies in M(d).
        Two vertices with one M(d) lie on a closed path, so the test
        agrees on them.  M(e) lies in M(d) exactly when e does, so the
        closed tails strictly inside M(d) are those with an end in M(d)
        that is not one of its own.  The tails are listed in ascending
        order as masks, so each comes after every closed tail inside it."""
        every = 0
        for d, t in enumerate(self.ancestors):
            if self.successors[d] & t or not self.regular >> d & 1:
                every |= 1 << d
        return {t: every & t & ~c for t, c in sorted(self.components.items()) if c & every}

    def least_tails(self) -> list[int]:
        """The closed tails with none inside, the complements of the
        coatoms of H_E.  A walk from outside a proper H in H_E stays
        outside (H is saturated) until it meets a sink, an infinite
        emitter or a closed path at some w, whose closed tail M(w) misses
        H (H is hereditary).  So E^0 minus H is the union of the closed
        tails that miss H (``lattice._walk``), and it is one least closed
        tail exactly when H is a coatom."""
        return [t for t, inside in self.tails.items() if not inside]

    def breaking(self, h: int) -> frozenset[str]:
        """B_H of a hereditary saturated mask h, as vertex ids: the
        infinite emitters whose bundles all land in h and that have a
        successor outside h, the target of one of finitely many named
        edges.  An emitter in h has none, as h is hereditary."""
        emitters = self.bundles.items()
        return frozenset(self.vertices[i] for i, b in emitters if not b & ~h and self.successors[i] & ~h)

    def hereditary(self, mask: int) -> int:
        """The hereditary closure: the vertices whose M(v) meets the mask,
        the union, here the sum, of the disjoint components they form."""
        return sum(c for t, c in self.components.items() if t & mask)

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


def _reach(steps: list[int], back: list[int]) -> tuple[list[int], dict[int, int]]:
    """Entry i: each vertex that a walk along ``steps`` from vertex i
    meets; and the strongly connected components, each keyed by the one
    entry that its vertices share.  ``back`` holds the arrows of
    ``steps`` reversed.  Kosaraju's two passes, on a stack and on masks
    rather than by recursion: the first finishes the vertices depth first
    along ``back``; the second takes them in reverse finish order, and
    each vertex not yet placed gathers its component along ``steps`` from
    the vertices not yet placed.  The vertices outside it that the
    component steps to are placed by then, so its entry is the component
    and their entries, one int for all its vertices."""
    finished, stack, unseen = [], [], (1 << len(steps)) - 1
    while stack or unseen:
        todo = back[stack[-1]] & unseen if stack else unseen  # an empty stack takes a new root
        if todo:
            i = todo.bit_length() - 1
            unseen ^= 1 << i
            stack.append(i)
        else:
            finished.append(stack.pop())
    out, components, unplaced = [0] * len(steps), {}, (1 << len(steps)) - 1
    for root in reversed(finished):
        if out[root]:  # placed with an earlier root's component
            continue
        members, todo, beyond, before = [], 1 << root, 0, unplaced
        unplaced ^= todo
        while todo:
            i = todo.bit_length() - 1
            todo ^= 1 << i
            members.append(i)
            beyond |= steps[i]
            todo |= beyond & unplaced
            unplaced &= ~beyond
        component = before ^ unplaced
        entry, beyond = component, beyond & ~component
        while beyond:  # each entry read takes off every vertex that it holds
            entry |= out[beyond.bit_length() - 1]
            beyond &= ~entry
        components[entry] = component
        for i in members:
            out[i] = entry
    return out, components


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

    parts = []
    for key, record, what in (("edges", Edge, "edge"), ("omega_bundles", OmegaBundle, "omega bundle")):
        items = doc.get(key, [])
        if not isinstance(items, list):
            raise GraphFormatError(f'"{key}" must be a list')
        parts.append(tuple(map(record._make, _strict_objects(items, record._fields, what))))

    try:
        return DirectedGraph(tuple(vertices), *parts)
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
        _json_block([s(v) for v in g.vertices], "\n  ", "[]"),
        _json_block([_EDGE_JSON % (s(e.id), s(e.src), s(e.dst)) for e in g.edges], "\n  ", "[]"),
        _json_block([_BUNDLE_JSON % (s(b.src), s(b.dst)) for b in g.omega_bundles], "\n  ", "[]"),
    )


def _json_block(items: list[str], newline: str, brackets: str) -> str:
    """Written JSON items framed as a list (``brackets`` is "[]") or an
    object ("{}") that starts on a line whose break and indentation are
    ``newline``, laid out as ``json.dumps`` with an indent of 2 does."""
    if not items:
        return brackets
    inner = newline + "  "
    return "".join((brackets[0], inner, ("," + inner).join(items), newline, brackets[1]))


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from values that are
    valid by construction, set as given in one write, as each checked
    ``__post_init__`` writes its own: they are not checked again.  Every
    field is named, defaults included, and so is each private value that
    the checked constructor keeps (the ``_b_h`` of an ``AdmissiblePair``
    or a ``NonGradedFamily``)."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj
