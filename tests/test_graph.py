import json

import pytest
from hypothesis import given

from conftest import graph, graphs, unique_maximal_graph, mixed_maximals_graph, random_corpus
from oracles import reach_sets
from lpaideals import (
    DirectedGraph,
    GraphError,
    GraphFormatError,
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


def test_direct_construction_validates():
    with pytest.raises(GraphError):
        graph([])
    with pytest.raises(GraphError):
        graph(["v"], [("e", "v", "x")])
    with pytest.raises(GraphError):
        graph(["v"], bundles=[("v", "v"), ("v", "v")])
