import gc
import random
from itertools import combinations

import pytest
from hypothesis import given

from conftest import (
    chain_graph,
    clique_with_loop,
    cross_bundle_cycle,
    graph,
    graph_and_subset,
    graphs,
    random_corpus,
    unique_maximal_graph,
)
from oracles import (
    condition_K_brute,
    condition_L_brute,
    cycles_brute,
    cycles_without_K_brute,
    is_downward_directed_brute,
    is_maximal_tail_brute,
    reach_sets,
)
from test_lattice import _refusal
from lpaideals import (
    GraphError,
    ResourceCapError,
    condition_K,
    condition_L,
    cycles_without_K,
    enumerate_HE,
    has_exit,
    is_downward_directed,
    is_maximal_tail,
    make_cycle,
    serialize_graph,
    simple_cycles,
)
from lpaideals import cycles
from lpaideals.cli import main
from lpaideals.cycles import Cycle, _is_cycle_without_K


def cycle_of(g, *edge_ids):
    return make_cycle(g, edge_ids)


def test_simple_cycles_unique_maximal_fixture():
    g = unique_maximal_graph()
    assert [c.edges for c in simple_cycles(g)] == [("c",), ("f1",), ("g1",)]


def test_simple_cycles_acyclic_path():
    g = graph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    assert simple_cycles(g) == []


def test_simple_cycles_chain_truncation():
    assert len(simple_cycles(chain_graph(3))) == 6


def test_simple_cycles_multivertex_and_parallel():
    g = graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("b2", "v", "u")])
    cycles = simple_cycles(g)
    assert [c.edges for c in cycles] == [("a", "b"), ("a", "b2")]
    assert all(c.base == "u" for c in cycles)


def test_simple_cycles_respects_cap():
    g = chain_graph(3)
    with pytest.raises(ResourceCapError):
        simple_cycles(g, cap=5)
    assert len(simple_cycles(g, cap=6)) == 6


def test_simple_cycles_leave_no_cyclic_garbage():
    g = chain_graph(3)
    gc.collect()
    gc.disable()
    try:
        assert len(simple_cycles(g)) == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cycle_type_invariants():
    for g in random_corpus(50, seed=13):
        cycles = simple_cycles(g)
        assert len({c.edges for c in cycles}) == len(cycles)
        for c in cycles:
            assert len(c.edges) == len(c.vertices)
            assert len(set(c.vertices)) == len(c.vertices)
            assert c.base == min(c.vertices)
            assert make_cycle(g, c.edges) == c


def test_cycle_enumeration_against_arrangement_oracle():
    for g in random_corpus(80, seed=17, with_bundles=False):
        assert {c.edges for c in simple_cycles(g)} == cycles_brute(g)


def test_has_exit_examples():
    a = unique_maximal_graph()
    assert not has_exit(a, cycle_of(a, "c"))
    assert has_exit(a, cycle_of(a, "f1"))
    loop_with_bundle = graph(["x"], [("l", "x", "x")], [("x", "x")])
    assert has_exit(loop_with_bundle, cycle_of(loop_with_bundle, "l"))


def test_has_exit_rejects_foreign_cycle():
    a = unique_maximal_graph()
    b = graph(["x"], [("l", "x", "x")])
    with pytest.raises(GraphError):
        has_exit(a, cycle_of(b, "l"))


def test_condition_L_examples(unique_max):
    report = condition_L(unique_max)
    assert not report.holds
    assert report.witness.edges == ("c",)

    two_loops = graph(["u"], [("f1", "u", "u"), ("g1", "u", "u")])
    assert condition_L(two_loops).holds

    acyclic = graph(["u", "v"], [("a", "u", "v")])
    assert condition_L(acyclic).holds


def test_cycles_without_K_examples(unique_max):
    assert [c.edges for c in cycles_without_K(unique_max)] == [("c",)]
    assert cycles_without_K(chain_graph(4)) == []
    single = graph(["v"], [("l", "v", "v")])
    assert [c.edges for c in cycles_without_K(single)] == [("l",)]


def test_condition_K_examples(unique_max):
    assert condition_K(chain_graph(3)).holds
    report = condition_K(unique_max)
    assert not report.holds
    assert report.witness.edges == ("c",)
    assert condition_K(graph(["u", "v"], [("a", "u", "v")])).holds


def test_self_bundle_supplies_condition_K():
    g = graph(["x"], [("l", "x", "x")], [("x", "x")])
    assert cycles_without_K(g) == []
    assert condition_K(g).holds
    assert condition_L(g).holds


def _assert_without_K_matches_the_oracle(g):
    assert [c.edges for c in cycles_without_K(g)] == [cyc for cyc, _ in cycles_without_K_brute(g)]


@given(graphs())
def test_cycles_without_K_against_the_bundle_aware_oracle(g):
    _assert_without_K_matches_the_oracle(g)


def test_cycles_without_K_against_the_bundle_aware_oracle_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_without_K_matches_the_oracle(g)


def test_cross_bundle_closing_a_cycle_gives_K():
    # f2: the bundle u -> v closes v -> w -> u -> v, so the loop c is not
    # the only cycle through v
    g = cross_bundle_cycle()
    c = make_cycle(g, ["c"])
    assert cycles_without_K(g) == []
    assert not _is_cycle_without_K(g, c)
    assert condition_K(g).holds
    assert condition_L(g).holds
    assert cycles_without_K_brute(g) == []
    assert condition_K_brute(g)


def test_bundle_between_two_vertices_of_a_cycle_gives_K():
    g = graph(["p", "q"], [("pq", "p", "q"), ("qp", "q", "p")], [("p", "q")])
    assert cycles_without_K(g) == []
    assert not _is_cycle_without_K(g, make_cycle(g, ["pq", "qp"]))
    assert condition_K(g).holds
    assert condition_K_brute(g)


def test_bundle_from_a_cycle_into_a_sink_leaves_it_without_K():
    g = graph(["s", "v"], [("l", "v", "v")], [("v", "s")])
    assert [c.edges for c in cycles_without_K(g)] == [("l",)]
    assert _is_cycle_without_K(g, make_cycle(g, ["l"]))
    assert condition_K(g).witness.edges == ("l",)
    assert not condition_K_brute(g)


def test_conditions_against_closed_path_oracles():
    for g in random_corpus(120, seed=19):
        assert condition_K(g).holds == condition_K_brute(g), g
        assert condition_L(g).holds == condition_L_brute(g), g


@given(graphs())
def test_condition_K_iff_no_cycle_without_K(g):
    assert condition_K(g).holds == (cycles_without_K(g) == [])


@given(graphs())
def test_condition_K_implies_condition_L(g):
    if condition_K(g).holds:
        assert condition_L(g).holds


def test_condition_report_serialization(unique_max):
    assert condition_K(unique_max).to_json_dict() == {"holds": False, "witness": ["c"]}
    assert condition_L(chain_graph(3)).to_json_dict() == {"holds": True, "witness": None}


def test_is_downward_directed_examples(unique_max, mixed_max):
    assert is_downward_directed(unique_max, {"u", "v", "w"})
    assert not is_downward_directed(mixed_max, {"u", "v", "w"})
    assert is_downward_directed(mixed_max, {"v"})
    with pytest.raises(GraphError):
        is_downward_directed(unique_max, set())


@given(graph_and_subset())
def test_is_downward_directed_against_the_pairwise_oracle(case):
    g, subset = case
    if subset:
        assert is_downward_directed(g, subset) == is_downward_directed_brute(reach_sets(g), subset)


def test_is_downward_directed_against_the_pairwise_oracle_on_the_acceptance_corpus():
    rng = random.Random(23)
    for g in random_corpus(500):
        reach = reach_sets(g)
        for _ in range(4):
            subset = frozenset(rng.sample(g.vertices, rng.randint(1, len(g.vertices))))
            assert is_downward_directed(g, subset) == is_downward_directed_brute(reach, subset), (g, subset)


@given(graphs())
def test_singletons_are_downward_directed(g):
    for v in g.vertices:
        assert is_downward_directed(g, {v})


def test_is_maximal_tail_examples(unique_max):
    assert is_maximal_tail(unique_max, {"u", "v", "w"})
    assert is_maximal_tail(unique_max, {"u"})
    assert not is_maximal_tail(unique_max, {"v"})
    single_loop = graph(["v"], [("l", "v", "v")])
    assert is_maximal_tail(single_loop, {"v"})


def test_maximal_tail_needs_mt2():
    # v regular with its only edge leaving the set
    g = graph(["u", "v"], [("a", "v", "u"), ("l", "u", "u")])
    assert not is_maximal_tail(g, {"v"})


def _assert_maximal_tails_agree(g):
    reach = reach_sets(g)
    for r in range(1, len(g.vertices) + 1):
        for subset in combinations(g.vertices, r):
            assert is_maximal_tail(g, subset) == is_maximal_tail_brute(g, reach, subset), subset


@given(graphs())
def test_is_maximal_tail_against_the_mt_oracle(g):
    _assert_maximal_tails_agree(g)


def test_is_maximal_tail_against_the_mt_oracle_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_maximal_tails_agree(g)


def _assert_without_K_test_agrees(g):
    without_k = cycles_without_K(g)
    for c in simple_cycles(g):
        assert _is_cycle_without_K(g, c) == (c in without_k), c


@given(graphs())
def test_per_cycle_without_K_test_agrees_with_enumeration(g):
    _assert_without_K_test_agrees(g)


def test_per_cycle_without_K_test_agrees_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_without_K_test_agrees(g)


def test_per_cycle_without_K_test_examples():
    # a and b lie only on their own cycles; the two-cycle through the
    # extra vertex x leaves {p, q} and comes back, so neither p nor q
    # lies on one cycle only
    g = graph(
        ["p", "q", "r", "s", "t", "x"],
        [("a", "r", "r"), ("b", "s", "t"), ("b2", "t", "s"),
         ("pq", "p", "q"), ("qp", "q", "p"), ("qx", "q", "x"), ("xp", "x", "p"),
         ("ts", "t", "r")],
    )
    assert _is_cycle_without_K(g, make_cycle(g, ["a"]))
    assert _is_cycle_without_K(g, make_cycle(g, ["b", "b2"]))
    assert not _is_cycle_without_K(g, make_cycle(g, ["pq", "qp"]))
    # a chord inside the vertex set of a cycle makes a second cycle
    chord = graph(["p", "q"], [("pq", "p", "q"), ("qp", "q", "p"), ("qp2", "q", "p")])
    assert not _is_cycle_without_K(chord, make_cycle(chord, ["pq", "qp"]))
    # a self bundle is infinitely many loops
    bundled = graph(["v"], [("l", "v", "v")], [("v", "v")])
    assert not _is_cycle_without_K(bundled, make_cycle(bundled, ["l"]))
    # not a cycle of the graph, or not in canonical rotation
    assert not _is_cycle_without_K(g, Cycle(("zz",), ("r",)))
    assert not _is_cycle_without_K(g, Cycle(("b2", "b"), ("t", "s")))


def test_clique_edge_ids_stay_distinct_past_nine_vertices():
    # unpadded, e111 would be both k1 -> k11 and k11 -> k1
    g = clique_with_loop(12)
    assert len(g.edges) == 12 * 11 + 1
    assert [e.id for e in clique_with_loop(5).edges][:3] == ["c", "e12", "e13"]


def _count_grow_calls(monkeypatch, limit):
    """The calls of the cycle search's path step, which fails the test
    as soon as there are more than ``limit`` of them."""
    calls = []
    grow = cycles._grow_cycles

    def counted(*args):
        calls.append(args[4])
        assert len(calls) <= limit, f"more than {limit} path steps"
        return grow(*args)

    monkeypatch.setattr(cycles, "_grow_cycles", counted)
    return calls


def diamond_chain(k):
    """The base a, then k diamonds in a row: each join vertex, a first,
    feeds two middle vertices that both feed the next join, and the last
    join carries the only cycle, a loop.  a has 2^k paths to it."""
    vertices, edges, join = ["a"], [], "a"
    for j in range(1, k + 1):
        x, y, z = f"v{j:02}x", f"v{j:02}y", f"v{j:02}z"
        vertices += [x, y, z]
        edges += [(f"p{j}", join, x), (f"q{j}", join, y), (f"r{j}", x, z), (f"s{j}", y, z)]
        join = z
    return graph(vertices, edges + [("c", join, join)])


def test_cycle_search_stays_in_each_base_component(monkeypatch):
    # every base but the last join has a component of itself alone, so
    # it grows no path; searching all paths above each base took
    # 4,194,163 steps to find the one loop
    calls = _count_grow_calls(monkeypatch, 100)
    g = diamond_chain(18)
    assert [c.edges for c in simple_cycles(g)] == [("c",)]
    assert len(calls) == len(g.vertices)


def sparse_graph(n):
    """n vertices, 3n random named edges and n // 50 random bundles,
    drawn from random.Random(n)."""
    rng = random.Random(n)
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(3 * n)]
    bundles = sorted({(rng.choice(vertices), rng.choice(vertices)) for _ in range(n // 50)})
    return graph(vertices, edges, bundles)


def test_cycle_cap_refuses_a_sparse_graph_within_bounded_work(monkeypatch, tmp_path, capsys):
    # bases off the large component used to grow paths without end
    g = sparse_graph(200)
    path = tmp_path / "sparse.json"
    path.write_text(serialize_graph(g))
    calls = _count_grow_calls(monkeypatch, 50_000)
    for condition in "LK":
        assert main(["check", str(path), "--condition", condition, "--cap", "100"]) == 3
        assert capsys.readouterr().err == "error: more than 100 simple cycles\n"
    assert calls


def test_cycles_without_K_tests_each_base_at_most_once(monkeypatch):
    tested = []
    on_one_cycle = cycles._on_one_cycle

    def counted(g, v):
        tested.append(v)
        return on_one_cycle(g, v)

    monkeypatch.setattr(cycles, "_on_one_cycle", counted)
    g = clique_with_loop(5)
    assert [c.edges for c in cycles_without_K(g)] == [("c",)]
    assert len(tested) == len(set(tested))
    assert set(tested) <= {c.base for c in simple_cycles(g)}


def test_analyze_searches_the_cycles_once(monkeypatch, tmp_path, capsys):
    """``analyze`` asks for the simple cycles five times and grows each
    path once, as ``check --condition L`` does."""
    path = tmp_path / "k5.json"
    path.write_text(serialize_graph(clique_with_loop(5)))
    calls = _count_grow_calls(monkeypatch, 1_000)
    steps = {}
    for command in (["check", "--condition", "L"], ["analyze"]):
        calls.clear()
        assert main([command[0], str(path), *command[1:], "--json"]) == 0
        steps[command[0]] = len(calls)
    capsys.readouterr()
    assert steps["analyze"] == steps["check"] >= 85


def test_a_refused_search_keeps_nothing(monkeypatch):
    g = clique_with_loop(5)  # 85 simple cycles
    assert _refusal(lambda: simple_cycles(g, cap=50)) == "more than 50 simple cycles"
    calls = _count_grow_calls(monkeypatch, 1_000)
    assert len(simple_cycles(g, cap=85)) == 85
    assert calls


def test_a_kept_search_answers_each_cap_as_a_fresh_search(monkeypatch):
    fresh = [_refusal(lambda: simple_cycles(clique_with_loop(5), cap=cap)) for cap in (84, 0)]
    fresh_l = condition_L(clique_with_loop(5))
    g = clique_with_loop(5)
    found = simple_cycles(g)
    _count_grow_calls(monkeypatch, 0)  # a path step fails the test
    assert [_refusal(lambda: simple_cycles(g, cap=cap)) for cap in (84, 0)] == fresh
    assert simple_cycles(g, cap=85) == found
    assert condition_L(g, cap=85) == fresh_l


def test_the_kept_cycles_are_not_the_returned_list():
    g = clique_with_loop(4)
    found = simple_cycles(g)
    expected = list(found)
    found.clear()
    again = simple_cycles(g)
    assert again == expected and again is not found
    again.append(again[0])
    assert simple_cycles(g) == expected


def test_equal_graphs_keep_their_enumerations_apart(monkeypatch):
    first, second = clique_with_loop(5), clique_with_loop(5)
    assert first == second and first is not second
    answers = (simple_cycles(first), enumerate_HE(first).sets)
    calls = _count_grow_calls(monkeypatch, 1_000)
    assert (simple_cycles(second), enumerate_HE(second).sets) == answers
    assert calls.count(second.vertices[0]) == 1  # the second graph is searched afresh
