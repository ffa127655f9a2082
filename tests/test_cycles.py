import dataclasses
import functools
import json
import random
from itertools import combinations

import pytest
from hypothesis import given

from conftest import (
    breaker_below_coatom,
    breaker_below_coatom_with_loop,
    breaking_emitters,
    chain_graph,
    clique_with_loop,
    cross_bundle_cycle,
    diamond_chain,
    graph,
    graph_and_subset,
    graphs,
    random_corpus,
    ring,
    sparse_graph,
    unique_maximal_graph,
)
from oracles import (
    _cycle_has_exit,
    condition_K_brute,
    condition_L_brute,
    cycles_brute,
    cycles_without_K_brute,
    is_downward_directed_brute,
    is_maximal_tail_brute,
    reach_sets,
)
import lpaideals
from lpaideals import (
    GraphError,
    NonGradedFamily,
    condition_K,
    condition_L,
    cycles_without_K,
    enumerate_HE,
    has_exit,
    is_downward_directed,
    is_maximal_tail,
    make_cycle,
    serialize_graph,
)
from lpaideals import cycles
from lpaideals.cli import main
from lpaideals.cycles import Cycle


def cycle_of(g, *edge_ids):
    return make_cycle(g, edge_ids)


def family_accepts(g, c):
    """Whether ``NonGradedFamily(g, set(), c)`` accepts c.  {} is
    hereditary saturated and misses c, so the one check that can refuse
    is the cycle's: it must be one of ``cycles_without_K(g)``."""
    try:
        NonGradedFamily(g, set(), c)
    except GraphError as exc:
        assert str(exc) == "cycle is not a cycle without K of this graph"
        return False
    return True


@functools.cache
def every_cycle(g):
    """Every simple cycle of g over named edges, in canonical rotation and
    sorted by edge tuple, by the arrangement oracle.  Kept per graph, as
    several comparisons read it."""
    return [make_cycle(g, edges) for edges in sorted(cycles_brute(g))]


# The reference list by hand on small graphs: every cycle once, in its
# canonical rotation (least vertex first), sorted by edge tuple.


def test_simple_cycles_unique_maximal_fixture():
    g = unique_maximal_graph()
    assert [c.edges for c in every_cycle(g)] == [("c",), ("f1",), ("g1",)]


def test_simple_cycles_acyclic_path():
    g = graph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    assert every_cycle(g) == []


def test_simple_cycles_chain_truncation():
    assert len(every_cycle(chain_graph(3))) == 6


def test_simple_cycles_multivertex_and_parallel():
    g = graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("b2", "v", "u")])
    found = every_cycle(g)
    assert [c.edges for c in found] == [("a", "b"), ("a", "b2")]
    assert all(c.base == "u" for c in found)


def test_cycle_type_invariants():
    for g in random_corpus(50, seed=13):
        for found in (cycles_without_K(g), cycles._exitless_cycles(g)):
            assert len({c.edges for c in found}) == len(found)
            for c in found:
                assert len(c) == len(c.edges) == len(c.vertices)
                assert len(set(c.vertices)) == len(c.vertices)
                assert c.base == min(c.vertices)
                assert make_cycle(g, c.edges) == c


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


def test_a_cycle_given_as_one_string_is_refused():
    """One str is not read as its characters: "c" would be the loop c at
    w, and "loop" the unknown edge 'l'."""
    g = unique_maximal_graph()
    assert make_cycle(g, ("c",)).edges == ("c",)
    for ids in ("c", "loop", "e2", ""):
        with pytest.raises(GraphError, match=f"not the string {ids!r}"):
            make_cycle(g, ids)


def test_cross_bundle_closing_a_cycle_gives_K():
    # f2: the bundle u -> v closes v -> w -> u -> v, so the loop c is not
    # the only cycle through v
    g = cross_bundle_cycle()
    c = make_cycle(g, ["c"])
    assert cycles_without_K(g) == []
    assert not family_accepts(g, c)
    assert condition_K(g).holds
    assert condition_L(g).holds
    assert cycles_without_K_brute(g) == []
    assert condition_K_brute(g)


def test_bundle_between_two_vertices_of_a_cycle_gives_K():
    g = graph(["p", "q"], [("pq", "p", "q"), ("qp", "q", "p")], [("p", "q")])
    assert cycles_without_K(g) == []
    assert not family_accepts(g, make_cycle(g, ["pq", "qp"]))
    assert condition_K(g).holds
    assert condition_K_brute(g)


def test_bundle_from_a_cycle_into_a_sink_leaves_it_without_K():
    g = graph(["s", "v"], [("l", "v", "v")], [("v", "s")])
    assert [c.edges for c in cycles_without_K(g)] == [("l",)]
    assert family_accepts(g, make_cycle(g, ["l"]))
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
    with pytest.raises(GraphError, match="maximal tails are non-empty"):
        is_maximal_tail(unique_max, [])


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
    """``NonGradedFamily`` accepts exactly the cycles without K, judged by
    the test-side count of the arrows in each cycle's component."""
    every = every_cycle(g)
    assert [c for c in every if family_accepts(g, c)] == without_K_by_enumeration(g, every)


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
    assert family_accepts(g, make_cycle(g, ["a"]))
    assert family_accepts(g, make_cycle(g, ["b", "b2"]))
    assert not family_accepts(g, make_cycle(g, ["pq", "qp"]))
    # a chord inside the vertex set of a cycle makes a second cycle
    chord = graph(["p", "q"], [("pq", "p", "q"), ("qp", "q", "p"), ("qp2", "q", "p")])
    assert not family_accepts(chord, make_cycle(chord, ["pq", "qp"]))
    # a self bundle is infinitely many loops
    bundled = graph(["v"], [("l", "v", "v")], [("v", "v")])
    assert not family_accepts(bundled, make_cycle(bundled, ["l"]))
    # not a cycle of the graph, or not in canonical rotation
    assert not family_accepts(g, Cycle(("zz",), ("r",)))
    assert not family_accepts(g, Cycle(("b2", "b"), ("t", "s")))


def test_clique_edge_ids_stay_distinct_past_nine_vertices():
    # unpadded, e111 would be both k1 -> k11 and k11 -> k1
    g = clique_with_loop(12)
    assert len(g.edges) == 12 * 11 + 1
    assert [e.id for e in clique_with_loop(5).edges][:3] == ["c", "e12", "e13"]


def test_cycle_cap_refuses_a_sparse_graph_within_bounded_work(tmp_path, capsys):
    """``check`` answers at any ``--cap`` and searches no cycle: it used
    to refuse at ``--cap 100`` on the 200-vertex graph, and to run past
    20 s on the 1,000-vertex one, growing paths inside its large
    component."""
    for n in (200, 1000):
        g = sparse_graph(n)
        path = tmp_path / f"sparse{n}.json"
        path.write_text(serialize_graph(g))
        for condition in "LK":
            assert main(["check", str(path), "--condition", condition, "--cap", "100", "--json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            if not report["holds"]:
                witness = make_cycle(g, report["witness"])
                if condition == "L":
                    assert not _cycle_has_exit(g, witness.edges, witness.vertices)
                else:
                    assert _on_one_cycle(g, witness.base)


def test_cycles_without_K_tests_each_base_at_most_once(monkeypatch):
    """Each vertex's inner edge is asked for once."""
    tested = []
    inner_edge = cycles._inner_edge

    def counted(g, v):
        tested.append(v)
        return inner_edge(g, v)

    monkeypatch.setattr(cycles, "_inner_edge", counted)
    g = clique_with_loop(5)
    assert [c.edges for c in cycles_without_K(g)] == [("c",)]
    assert sorted(tested) == sorted(g.vertices)


def test_condition_L_builds_no_index():
    for g in (unique_maximal_graph(), clique_with_loop(5), cross_bundle_cycle(), ring(7)):
        condition_L(g)
        assert "_masks" not in vars(g)


def _assert_exitless_cycles_are_without_K(g):
    """(K) implies (L): the exitless cycles are a sublist of the cycles
    without K, both in edge-tuple order."""
    without_k = iter(cycles_without_K(g))
    assert all(c in without_k for c in cycles._exitless_cycles(g))


@given(graphs())
def test_exitless_cycles_are_without_K(g):
    _assert_exitless_cycles_are_without_K(g)


def test_exitless_cycles_are_without_K_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_exitless_cycles_are_without_K(g)


REPORT_COMMANDS = [
    ["check", "--condition", "L"],
    ["check", "--condition", "K"],
    ["primes"],
    ["maximals"],
    ["analyze"],
]


def test_analyze_searches_the_cycles_once(tmp_path, capsys):
    """At most once, and in fact never: every command reads the
    conditions and the prime families off the components, and the
    library has no cycle enumerator left to call."""
    assert not hasattr(lpaideals, "simple_cycles") and not hasattr(cycles, "simple_cycles")
    path = tmp_path / "k5.json"
    path.write_text(serialize_graph(clique_with_loop(5)))
    for command in REPORT_COMMANDS:
        assert main([command[0], str(path), *command[1:], "--json"]) == 0
    capsys.readouterr()


def test_equal_graphs_keep_their_enumerations_apart():
    first, second = clique_with_loop(5), clique_with_loop(5)
    assert first == second and first is not second
    answer = enumerate_HE(first).sets
    assert second._masks is not first._masks
    assert second._masks.closed_sets is None  # the second graph walks afresh
    assert enumerate_HE(second).sets == answer


def clique_report(n):
    """The JSON answers for ``clique_with_loop(n)``, derived by hand:
    H_E is {}, {z}, the clique K and everything; the primes are I({z}),
    I(K) and the family (K, [c]); the only graded maximal ideal is I({z});
    (L) and (K) fail, and the loop c is the only witness."""
    ks = sorted(clique_with_loop(n).vertices)[:-1]
    fails = {"holds": False, "witness": ["c"]}
    maximality = {
        "every_ideal_below_maximal": True,
        "every_maximal_graded": False,
        "exists_maximal": True,
        "graded_maximals": [{"H": ["z"], "S": []}],
        "nongraded_maximal_families": [{"H": ks, "cycle": ["c"]}],
        "unique_maximal": None,
    }
    primes = [
        {"kind": "graded", "H": ks, "S": []},
        {"kind": "nongraded_family", "H": ks, "cycle": ["c"], "poly": "irreducible f in K[x,x^-1]"},
        {"kind": "graded", "H": ["z"], "S": []},
    ]
    return {
        "check L": fails,
        "check K": fails,
        "primes": primes,
        "maximals": maximality,
        "analyze": {
            "condition_L": fails,
            "condition_K": fails,
            "hereditary_saturated": {"sets": [[], ["z"], ks, ks + ["z"]], "maximal_proper": [["z"], ks]},
            "maximality": maximality,
            "primes": primes,
        },
    }


@pytest.mark.parametrize("n", [10, 12])
def test_large_cliques_answer_without_a_cycle_search(tmp_path, capsys, n):
    """K10 plus a loop used to refuse at ``--cap 200000`` after seconds of
    enumeration; K12 has about 10^9 simple cycles."""
    path = tmp_path / "clique.json"
    path.write_text(serialize_graph(clique_with_loop(n)))
    expected = clique_report(n)
    for command in REPORT_COMMANDS:
        assert main([command[0], str(path), *command[1:], "--json", "--cap", "200000"]) == 0
        assert json.loads(capsys.readouterr().out) == expected[" ".join(command[:1] + command[2:])]


def _on_one_cycle(g, v):
    """True iff v, a vertex on a named cycle, lies on no other cycle: its
    strongly connected component holds as many arrows (edges and
    bundles) as vertices."""
    component = g.descendants(v) & g.m_of(v)
    arrows = [a for u in component for a in g.out_edges(u) + g.out_bundles(u)]
    return sum(a.dst in component for a in arrows) == len(component)


def exitless_by_enumeration(g, every):
    """The exitless cycles, filtered from every simple cycle by the
    oracle's exit test, not by ``has_exit``, which reads ``_exitless_cycles``."""
    return [c for c in every if not _cycle_has_exit(g, c.edges, c.vertices)]


def without_K_by_enumeration(g, every):
    """The cycles without K, filtered from every simple cycle."""
    return [c for c in every if _on_one_cycle(g, c.base)]


def _assert_component_cycles_match_the_enumeration(g, every=None):
    """``every`` is g's list of simple cycles, the oracle's by default."""
    every = every_cycle(g) if every is None else every
    exitless = exitless_by_enumeration(g, every)
    assert cycles._exitless_cycles(g) == exitless
    assert [c for c in every if not has_exit(g, c)] == exitless
    assert cycles_without_K(g) == without_K_by_enumeration(g, every)


@given(graphs())
def test_component_cycles_match_the_enumeration(g):
    _assert_component_cycles_match_the_enumeration(g)


def test_component_cycles_match_the_enumeration_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_component_cycles_match_the_enumeration(g)


def test_component_cycles_match_the_enumeration_on_the_fixtures():
    diamond = diamond_chain(3)
    fixtures = [
        unique_maximal_graph(),
        cross_bundle_cycle(),
        breaker_below_coatom(),
        breaker_below_coatom_with_loop(),
        breaking_emitters(3),
        clique_with_loop(5),
        chain_graph(3),
        diamond,
        ring(7),
    ]
    # diamond has 10 vertices, where the arrangement oracle takes seconds;
    # by hand, its one simple cycle is the loop c at the last join
    hand_derived = {diamond: [make_cycle(diamond, ["c"])]}
    for g in fixtures:
        _assert_component_cycles_match_the_enumeration(g, hand_derived.get(g))
    assert [c.edges for c in cycles._exitless_cycles(diamond)] == [("c",)]
    assert [c.edges for c in cycles_without_K(diamond)] == [("c",)]
    assert [c.edges for c in cycles._exitless_cycles(breaker_below_coatom_with_loop())] == [("d",)]
    assert cycles._exitless_cycles(cross_bundle_cycle()) == cycles_without_K(cross_bundle_cycle()) == []


def test_cycle_lists_follow_a_ring_past_the_recursion_limit():
    g = ring(1200)
    ring_edges = tuple(e.id for e in g.edges)
    assert [c.edges for c in cycles._exitless_cycles(g)] == [ring_edges]
    assert [c.edges for c in cycles_without_K(g)] == [ring_edges]


@pytest.mark.parametrize(
    "edge_ids, message",
    [
        ((), "a cycle has at least one edge"),
        (("a", "a"), "edges 'a' and 'a' do not compose"),
        (("a",), "edge sequence is not closed"),
        (("a", "b", "c", "d"), "cycle passes through a vertex twice"),
    ],
)
def test_make_cycle_names_what_is_wrong(edge_ids, message):
    """On u -a-> v -b-> u -c-> w -d-> u, a closed walk through u twice."""
    g = graph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "w"), ("d", "w", "u")])
    with pytest.raises(GraphError) as exc:
        make_cycle(g, edge_ids)
    assert str(exc.value) == message


def test_a_condition_report_has_a_witness_exactly_when_the_condition_fails():
    """A report stores only its witness, and holds exactly when it has
    none: the constructor takes no verdict that could contradict it."""
    witness = make_cycle(unique_maximal_graph(), ["c"])
    assert [f.name for f in dataclasses.fields(cycles.ConditionReport)] == ["witness"]
    for call in (
        lambda: cycles.ConditionReport(True, witness),
        lambda: cycles.ConditionReport(False, None),
        lambda: cycles.ConditionReport(holds=True),
        lambda: cycles.ConditionReport(None, holds=True),
    ):
        with pytest.raises(TypeError):
            call()
    assert cycles.ConditionReport(None).holds is True
    assert cycles.ConditionReport(witness).holds is False
    assert cycles.ConditionReport(witness).witness == witness
