import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chain_graph,
    clique_with_loop,
    graph,
    graphs,
    mixed_maximals_graph,
    paired_cycles,
    random_corpus,
    ring,
    sparse_graph,
    unique_maximal_graph,
)
from oracles import components_brute, reach_sets
from lpaideals import graph as graph_module
from lpaideals import (
    DirectedGraph,
    Edge,
    GraphError,
    GraphFormatError,
    OmegaBundle,
    UnknownVertexError,
    VertexKind,
    parse_graph,
    serialize_graph,
)

FIXTURE_DOC = """
{
  "vertices": ["u", "v", "w"],
  "edges": [
    {"id": "f1", "src": "u", "dst": "u"},
    {"id": "g1", "src": "u", "dst": "u"},
    {"id": "e1", "src": "u", "dst": "v"},
    {"id": "e2", "src": "v", "dst": "w"},
    {"id": "c", "src": "w", "dst": "w"}
  ]
}
"""


def test_parse_fixture_document():
    g = parse_graph(FIXTURE_DOC)
    assert g == unique_maximal_graph()
    assert g.vertices == ("u", "v", "w")
    assert [e.id for e in g.edges] == ["c", "e1", "e2", "f1", "g1"]


def test_parse_smallest_graph():
    g = parse_graph('{"vertices": ["v"], "edges": []}')
    assert g.vertices == ("v",)
    assert g.edges == ()
    assert g.omega_bundles == ()


def test_parse_infinite_emitter():
    doc = {
        "vertices": ["v", "w"],
        "edges": [{"id": "f", "src": "v", "dst": "v"}],
        "omega_bundles": [{"src": "v", "dst": "w"}],
    }
    g = parse_graph(json.dumps(doc))
    assert g.vertex_kind("v") is VertexKind.INFINITE_EMITTER
    assert g.vertex_kind("w") is VertexKind.SINK


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"vertices": ["v"]}',
        '{"vertices": ["v"], "edges": [], "extra": 1}',
        '{"vertices": ["v", "v"], "edges": []}',
        '{"vertices": [""], "edges": []}',
        '{"vertices": [], "edges": []}',
        '{"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "x"}]}',
        '{"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"},'
        ' {"id": "e", "src": "v", "dst": "v"}]}',
        '{"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v", "weight": 2}]}',
        '{"vertices": ["v", "w"], "edges": [],'
        ' "omega_bundles": [{"src": "v", "dst": "w"}, {"src": "v", "dst": "w"}]}',
        '{"vertices": ["v"], "edges": [], "omega_bundles": [{"src": "v"}]}',
    ],
)
def test_parse_rejects_bad_documents(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


V_EDGE = {"id": "e", "src": "v", "dst": "v"}


@pytest.mark.parametrize(
    "key, items, message",
    [
        ("edges", [V_EDGE, 5], "each edge must be an object"),
        ("edges", [V_EDGE, ["id", "src", "dst"]], "each edge must be an object"),
        ("edges", [{**V_EDGE, "weight": 2}], "edge has unknown keys ['weight']"),
        ("edges", [{"id": "e", "x": 1}], "edge has unknown keys ['x']"),
        ("edges", [{"src": 1}], "edge is missing key 'id'"),
        ("edges", [V_EDGE, {"id": "e2", "src": "v"}], "edge is missing key 'dst'"),
        ("edges", [{"id": 1, "src": "v", "dst": True}], "edge key 'id' must be a string"),
        ("edges", [{"id": "e", "src": "v", "dst": None}], "edge key 'dst' must be a string"),
        ("omega_bundles", [{"src": "v", "dst": 2}], "omega bundle key 'dst' must be a string"),
        ("omega_bundles", ["v"], "each omega bundle must be an object"),
    ],
)
def test_a_malformed_item_names_its_first_fault(key, items, message):
    doc = {"vertices": ["v"], "edges": [], key: items}
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": "v", "edges": []}, '"vertices" must be a list of strings'),
        ({"vertices": ["v", 1], "edges": []}, '"vertices" must be a list of strings'),
        ({"vertices": ["v"], "edges": {}}, '"edges" must be a list'),
        ({"vertices": ["v"], "edges": [], "omega_bundles": None}, '"omega_bundles" must be a list'),
        # the edges are read, and their first fault named, before the bundles
        ({"vertices": ["v"], "edges": {}, "omega_bundles": [5]}, '"edges" must be a list'),
        ({"vertices": ["v"], "edges": [5], "omega_bundles": None}, "each edge must be an object"),
        ({"vertices": ["v"], "edges": [{"id": "e"}], "omega_bundles": [{"src": 1}]}, "edge is missing key 'src'"),
    ],
)
def test_a_part_that_is_not_a_list_is_named(doc, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_rejects_nesting_past_the_recursion_limit():
    with pytest.raises(GraphFormatError, match="nested too deeply"):
        parse_graph('{"vertices": ' + "[" * 100_000)


def test_parallel_named_edges_are_allowed():
    g = graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    assert len(g.edges) == 2


def test_vertex_kinds():
    a = unique_maximal_graph()
    assert a.vertex_kind("w") is VertexKind.REGULAR
    single = graph(["v"])
    assert single.vertex_kind("v") is VertexKind.SINK
    with pytest.raises(UnknownVertexError):
        single.vertex_kind("nope")


def test_kind_partition_is_exact():
    for g in random_corpus(40, seed=7):
        for v in g.vertices:
            kind = g.vertex_kind(v)
            has_bundle = bool(g.out_bundles(v))
            has_named = bool(g.out_edges(v))
            if has_bundle:
                assert kind is VertexKind.INFINITE_EMITTER
            elif has_named:
                assert kind is VertexKind.REGULAR
            else:
                assert kind is VertexKind.SINK


@pytest.mark.parametrize(
    "parts, message",
    [
        ((["a", 1],), "vertex id must be a non-empty string, got 1"),
        ((["a"], [("e", "a", "a"), (None, "a", "a")]), "edge id must be a non-empty string, got None"),
        ((["a"], [], [(1, "a"), ("a", "a")]), "omega bundle uses undeclared vertex 1"),
        ((["a"], [("e", ["a"], "a")]), "edge 'e' uses undeclared vertex ['a']"),
    ],
)
def test_ids_that_are_not_strings_raise_graph_error(parts, message):
    with pytest.raises(GraphError) as exc:
        DirectedGraph.from_parts(*parts)
    assert str(exc.value) == message


@pytest.mark.parametrize("build", [DirectedGraph, DirectedGraph.from_parts])
def test_one_string_is_no_vertex_set(build):
    """As everywhere a vertex set is taken, one str is refused, not read
    as the vertices of its characters."""
    with pytest.raises(GraphError) as exc:
        build("ab")
    assert str(exc.value) == "the vertices are a collection of ids, not the string 'ab'"


@pytest.mark.parametrize(
    "parts, message",
    [
        ((("a",), (("e", "a", "a"),)), "an edge must be an Edge record, got ('e', 'a', 'a')"),
        ((("a",), (OmegaBundle("a", "a"),)), "an edge must be an Edge record, got OmegaBundle(src='a', dst='a')"),
        ((("a",), (), (("a", "a"),)), "an omega bundle must be an OmegaBundle record, got ('a', 'a')"),
        ((("a",), (), ("aa",)), "an omega bundle must be an OmegaBundle record, got 'aa'"),
    ],
)
def test_arrows_that_are_not_records_raise_graph_error(parts, message):
    """The constructor takes ``Edge`` and ``OmegaBundle`` records, and
    ``from_parts`` plain tuples; anything else is a GraphError, not an
    AttributeError on a missing field."""
    with pytest.raises(GraphError) as exc:
        DirectedGraph(*parts)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parts, message",
    [
        ((["a", "b"], "ab"), "the edges are a collection of tuples, not the string 'ab'"),
        ((["a", "b"], [], "ab"), "the omega bundles are a collection of tuples, not the string 'ab'"),
        ((["a", "b"], ["eab"]), "an edge must be a tuple (id, src, dst), got 'eab'"),
        ((["a", "b"], [], ["ab"]), "an omega bundle must be a tuple (src, dst), got 'ab'"),
        ((["a"], [("e", "a")]), "an edge must be a tuple (id, src, dst), got ('e', 'a')"),
        ((["a"], [], [("a", "a", "a")]), "an omega bundle must be a tuple (src, dst), got ('a', 'a', 'a')"),
        ((["a"], [5]), "an edge must be a tuple (id, src, dst), got 5"),
    ],
)
def test_from_parts_refuses_what_is_not_a_row_of_plain_fields(parts, message):
    """``from_parts`` reads each edge as (id, src, dst) and each bundle as
    (src, dst): one str given as a part or as a row, and a row of another
    length, are a GraphError that names the part, not a graph read off
    the characters of a string, and not a TypeError."""
    with pytest.raises(GraphError) as exc:
        DirectedGraph.from_parts(*parts)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, parts, message",
    [
        (DirectedGraph, (5,), "the vertices are a collection of ids, not 5"),
        (DirectedGraph, (None,), "the vertices are a collection of ids, not None"),
        (DirectedGraph, (("a",), 5), "the edges are a collection of Edge records, not 5"),
        (DirectedGraph, (("a",), (), None), "the omega bundles are a collection of OmegaBundle records, not None"),
        (DirectedGraph.from_parts, (5,), "the vertices are a collection of ids, not 5"),
        (DirectedGraph.from_parts, (["a"], 5), "the edges are a collection of tuples, not 5"),
        (DirectedGraph.from_parts, (["a"], [("e", "a", "a")], None), "the omega bundles are a collection of tuples, not None"),
        # the parts are checked in the given order, by either route
        (DirectedGraph, (5, 6), "the vertices are a collection of ids, not 5"),
        (DirectedGraph.from_parts, (5, 6), "the vertices are a collection of ids, not 5"),
        (DirectedGraph.from_parts, ("ab", "cd"), "the vertices are a collection of ids, not the string 'ab'"),
    ],
)
def test_a_part_that_is_no_collection_is_named(build, parts, message):
    """Each part is a collection: a value that cannot be iterated is a
    GraphError that names the part, not a TypeError."""
    with pytest.raises(GraphError) as exc:
        build(*parts)
    assert str(exc.value) == message


def _records(vertices, edges=(), bundles=()):
    return tuple(vertices), tuple(map(Edge._make, edges)), tuple(map(OmegaBundle._make, bundles))


def _document(vertices, edges=(), bundles=()):
    return json.dumps(
        {
            "vertices": list(vertices),
            "edges": [dict(zip(Edge._fields, e)) for e in edges],
            "omega_bundles": [dict(zip(OmegaBundle._fields, b)) for b in bundles],
        }
    )


def _outcome(build, *args):
    """The graph built, or the message of the GraphError raised."""
    try:
        return build(*args)
    except GraphError as exc:
        return str(exc)


def _outcomes(vertices, edges=(), bundles=()):
    """What the constructor, ``from_parts`` and, for parts of strings
    alone, ``parse_graph`` give on one set of parts."""
    parts = (vertices, edges, bundles)
    out = [_outcome(DirectedGraph, *_records(*parts)), _outcome(DirectedGraph.from_parts, *parts)]
    if all(isinstance(x, str) for x in [*vertices, *(x for row in (*edges, *bundles) for x in row)]):
        out.append(_outcome(parse_graph, _document(*parts)))
    return out


@pytest.mark.parametrize(
    "parts, message",
    [
        # structural faults: in canonical order, the vertices, then the edges, then the bundles
        ((["b", "b", ""],), "vertex id must be a non-empty string, got ''"),
        ((["a", "a"], [("e", "a", "zz")]), "duplicate vertex id 'a'"),
        ((["a"], [("e2", "a", "zz"), ("e1", "a", "yy")]), "edge 'e1' uses undeclared vertex 'yy'"),
        ((["a"], [("e", "a", "a"), ("e", "a", "a"), ("", "a", "z")]), "edge id must be a non-empty string, got ''"),
        ((["a"], [("e1", "a", "a"), ("e1", "a", "a")], [("a", "z")]), "duplicate edge id 'e1'"),
        ((["a", "b"], [], [("b", "b"), ("b", "b"), ("a", "z")]), "omega bundle uses undeclared vertex 'z'"),
        ((["a", "b"], [], [("b", "z"), ("a", "b"), ("a", "b")]), "duplicate omega bundle ('a', 'b')"),
        # no vertices: named before an edge's endpoint, which the structural pass checks
        (([], [("e", 1, "a")]), "graph must declare at least one vertex"),
        # type faults: first, in the given order, as ids of mixed types cannot be sorted
        (([], [], [(1, "a")]), "omega bundle uses undeclared vertex 1"),
        ((["a", 1], [(None, "a", "a")], [(2, "a")]), "vertex id must be a non-empty string, got 1"),
        ((["a", "a"], [("e", "a", "a"), (None, "a", "a")]), "edge id must be a non-empty string, got None"),
        ((["a"], [("e", "a", "a"), (2, "a", "a"), (None, "a", "a")]), "edge id must be a non-empty string, got 2"),
    ],
)
def test_a_graph_with_several_faults_names_the_same_one_by_every_route(parts, message):
    """Type faults come first, in the given order; structural faults
    follow, in canonical order.  The constructor, ``from_parts`` and
    ``parse_graph`` (with parts of strings alone) name the same one."""
    assert set(_outcomes(*parts)) == {message}


_PART_IDS = st.sampled_from(["", "a", "b", "c", "z"])
_EDGE_ROWS = st.tuples(st.sampled_from(["", "e1", "e2", "e3"]), _PART_IDS, _PART_IDS)


@settings(max_examples=200)
@given(
    st.lists(_PART_IDS, max_size=4),
    st.lists(_EDGE_ROWS, max_size=4, unique_by=lambda e: e[0]),
    st.lists(st.tuples(_PART_IDS, _PART_IDS), max_size=4),
    st.randoms(use_true_random=False),
)
def test_the_order_of_each_part_changes_neither_the_graph_nor_the_error(vertices, edges, bundles, rnd):
    """For parts of strings with distinct edge ids, shuffled parts give
    the same graph or the same message by every route.  Repeated edge ids
    are left out: the sort by id keeps the given order of twins, so which
    of two faults of twins is named first follows the given order."""
    given_order = _outcomes(vertices, edges, bundles)
    assert given_order.count(given_order[0]) == len(given_order)
    shuffled = [rnd.sample(part, len(part)) for part in (vertices, edges, bundles)]
    assert _outcomes(*shuffled) == given_order


def test_reaches_examples():
    """u reaches v when v is among u's descendants."""
    a = unique_maximal_graph()
    assert "w" in a.descendants("u")
    assert "w" in a.descendants("w")
    b = mixed_maximals_graph()
    assert "w" not in b.descendants("u")


def test_m_of_examples():
    a = unique_maximal_graph()
    assert a.m_of("w") == {"u", "v", "w"}
    assert graph(["v"]).m_of("v") == {"v"}
    b = mixed_maximals_graph()
    assert b.m_of("u") == {"u", "v"}


def test_reachability_against_floyd_warshall():
    for g in random_corpus(60, seed=11, max_vertices=8):
        expected = reach_sets(g)
        for u in g.vertices:
            assert g.descendants(u) == expected[u]
            for v in g.vertices:
                assert (u in g.m_of(v)) == (v in expected[u])


@given(graphs())
def test_reaches_is_reflexive_and_transitive(g):
    for u in g.vertices:
        assert u in g.descendants(u)
    for u in g.vertices:
        for v in g.descendants(u):
            assert g.descendants(v) <= g.descendants(u)


@given(graphs())
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def _json_dumps_reference(g):
    """The text of ``serialize_graph`` by the stdlib's indenting encoder."""
    doc = {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
        "omega_bundles": [{"src": b.src, "dst": b.dst} for b in g.omega_bundles],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_serialize_writes_what_json_dumps_writes():
    odd = DirectedGraph.from_parts(
        ["\u00e9", "\u2603", 'q"\\', "x y"],
        [("\n", "\u00e9", "\u2603"), ("\u2028", "x y", "\u00e9")],
        [('q"\\', "\u00e9")],
    )
    for g in random_corpus(500) + [odd, graph(["v"])]:
        assert serialize_graph(g) == _json_dumps_reference(g)


def test_canonical_ordering_is_input_order_independent():
    g1 = DirectedGraph.from_parts(
        ["b", "a"], [("e2", "a", "b"), ("e1", "b", "a")], [("b", "a"), ("a", "b")]
    )
    g2 = DirectedGraph.from_parts(
        ["a", "b"], [("e1", "b", "a"), ("e2", "a", "b")], [("a", "b"), ("b", "a")]
    )
    assert g1 == g2
    assert serialize_graph(g1) == serialize_graph(g2)


def test_the_records_of_edges_and_bundles():
    """What a caller may rely on of ``Edge`` and ``OmegaBundle``: their
    text, their hash, that they are immutable and never equal to each
    other, and the canonical order in which a graph holds them."""
    e, b = Edge("a", "u", "v"), OmegaBundle("u", "v")
    assert repr(e) == "Edge(id='a', src='u', dst='v')" and repr(b) == "OmegaBundle(src='u', dst='v')"
    assert hash(e) == hash(("a", "u", "v")) and hash(b) == hash(("u", "v"))
    assert e != b
    for record, name in ((e, "id"), (e, "dst"), (b, "src")):
        with pytest.raises(AttributeError):
            setattr(record, name, "w")
    # a record equals the plain tuple of its fields
    assert e == ("a", "u", "v") and b == ("u", "v")
    for g in random_corpus(500):
        assert all(type(x) is Edge for x in g.edges) and all(type(x) is OmegaBundle for x in g.omega_bundles)
        ids = [x.id for x in g.edges]
        ends = [(x.src, x.dst) for x in g.omega_bundles]
        assert ids == sorted(set(ids)) and ends == sorted(set(ends))
        assert parse_graph(serialize_graph(g)) == g


def test_direct_construction_validates():
    with pytest.raises(GraphError):
        graph([])
    with pytest.raises(GraphError):
        graph(["v"], [("e", "v", "x")])
    with pytest.raises(GraphError):
        graph(["v"], bundles=[("v", "v"), ("v", "v")])
    with pytest.raises(GraphError, match="edge id must be a non-empty string, got ''"):
        graph(["v"], [("", "v", "v")])
    for bundle in (("v", "z"), ("z", "v")):
        with pytest.raises(GraphError, match="omega bundle uses undeclared vertex 'z'"):
            graph(["v"], bundles=[bundle])


class _CountedSteps(list):
    """Step masks that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring(400),
        lambda: chain_graph(400),
        lambda: chain_graph(400, reverse=True),
        lambda: clique_with_loop(40),
        lambda: paired_cycles(200),
    ],
    ids=["ring", "chain", "reversed_chain", "clique", "paired_cycles"],
)
def test_the_reachability_index_reads_each_step_mask_a_bounded_number_of_times(build):
    """At most 4n step-mask reads over both lists together, in each
    direction, on paths and cycles numbered along the walk and against it
    (F6), on a clique and on two-cycles joined in a path.  The first pass
    reads a vertex's ``back`` mask when it steps on from it and when it
    finishes, at most 2n reads, and the second reads each ``steps`` mask
    once as it gathers the components: at most 3n, where a walk from
    each vertex in index order took up to n^2 / 2."""
    g = build()
    masks = g._masks
    n = len(g.vertices)
    reads = {}
    for name, steps, back, reach in (
        ("descendants", masks.successors, masks.predecessors, [masks.hereditary(1 << i) for i in range(n)]),
        ("ancestors", masks.predecessors, masks.successors, masks.ancestors),
    ):
        counted = _CountedSteps(steps), _CountedSteps(back)
        assert graph_module._reach(*counted)[0] == reach
        reads[name] = sum(c.reads for c in counted)
    assert max(reads.values()) <= 4 * n, reads


def test_the_vertices_of_one_component_share_one_ancestor_int():
    """``_reach`` gives the vertices of a strongly connected component one
    int object, so the index holds one M(v) per component."""
    for g in random_corpus(500, seed=20260809) + [sparse_graph(2000)]:
        masks = g._masks
        assert len({id(t) for t in masks.ancestors}) == len(masks.components)


def test_building_the_index_walks_the_predecessor_masks_once(monkeypatch):
    """The index runs one reachability pass, for the M(d), along the
    predecessor masks with the successor masks as ``back``; what a vertex
    reaches is read off them."""
    calls = []
    reach = graph_module._reach

    def counted(steps, back):
        calls.append((list(steps), list(back)))
        return reach(steps, back)

    monkeypatch.setattr(graph_module, "_reach", counted)
    for g in [unique_maximal_graph(), mixed_maximals_graph(), ring(5), chain_graph(5)]:
        calls.clear()
        masks = g._masks
        assert calls == [(masks.predecessors, masks.successors)]
        assert not hasattr(masks, "descendants")


def _check_components(g):
    """Each entry of ``_Masks.components`` is a strongly connected
    component, keyed by the M(d) of its vertices, and every vertex lies
    in one."""
    masks = g._masks
    reach = reach_sets(g)
    got = {}
    for t, component in masks.components.items():
        for v in masks.to_set(component):
            assert masks.to_set(t) == {u for u in g.vertices if v in reach[u]}
            got[v] = masks.to_set(component)
    assert got == components_brute(g)


@given(graphs())
def test_the_components_are_the_strongly_connected_components(g):
    _check_components(g)


def test_the_components_are_the_strongly_connected_components_on_the_acceptance_corpus():
    extra = [ring(7), chain_graph(7), chain_graph(7, reverse=True), paired_cycles(4)]
    for g in random_corpus(500, seed=20260809) + extra:
        _check_components(g)


_ARRAYS = ((("id", "src", "dst"), "edge"), (("src", "dst"), "omega bundle"))
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False), st.text(max_size=2),
    st.lists(st.text(max_size=1), max_size=2),
)
_JSON_ITEMS = st.one_of(
    *(st.fixed_dictionaries({key: st.text(max_size=2) for key in keys}) for keys, _ in _ARRAYS),
    *(st.fixed_dictionaries({key: _JSON_VALUES for key in keys}) for keys, _ in _ARRAYS),
    st.dictionaries(st.sampled_from(["id", "src", "dst", "x", ""]), _JSON_VALUES, max_size=5),
    _JSON_VALUES,
)


def _strict_outcomes(items, keys, what):
    """What the bulk check and the check of each item in turn give: the
    rows, or the message of the GraphFormatError raised."""
    outcomes = []
    for check in (
        lambda: graph_module._strict_objects(items, keys, what),
        lambda: [graph_module._strict_object(item, keys, what) for item in items],
    ):
        try:
            outcomes.append(check())
        except GraphFormatError as exc:
            outcomes.append(str(exc))
    return outcomes


@settings(max_examples=300)
@given(st.lists(_JSON_ITEMS, max_size=4))
def test_the_bulk_check_of_edges_and_bundles_agrees_with_the_check_of_each(items):
    """``_strict_objects`` checks a list of edges or bundles in bulk and
    falls back to ``_strict_object`` per item: both give the same rows or
    the same error, on JSON values of every kind."""
    for keys, what in _ARRAYS:
        bulk, each = _strict_outcomes(items, keys, what)
        assert bulk == each


def test_the_bulk_check_agrees_with_the_check_of_each_on_the_acceptance_corpus():
    for g in random_corpus(500, seed=20260809):
        doc = json.loads(serialize_graph(g))
        for (keys, what), items in zip(_ARRAYS, (doc["edges"], doc["omega_bundles"])):
            bulk, each = _strict_outcomes(items, keys, what)
            assert bulk == each == [tuple(item[key] for key in keys) for item in items]
