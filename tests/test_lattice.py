import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given

from conftest import (
    chain_graph,
    graph,
    graph_and_subset,
    graphs,
    omega_graph,
    unique_maximal_graph,
    mixed_maximals_graph,
    random_corpus,
)
from oracles import (
    breaking_vertices_brute,
    hereditary_saturated_sets_brute,
    is_hereditary_brute,
    is_saturated_brute,
    maximal_proper_brute,
    reach_sets,
)
from test_golden import loop_antichain
from lpaideals import (
    AdmissiblePair,
    GraphError,
    ResourceCapError,
    breaking_vertices,
    enumerate_HE,
    hereditary_closure,
    hs_closure,
    is_hereditary,
    is_saturated,
    leq_prime,
    maximal_proper_elements,
    quotient_graph,
    serialize_graph,
    parse_graph,
)
from lpaideals import lattice
from lpaideals.graph import _Masks


def sets_of(lat):
    return [set(s) for s in lat.sets]


def test_hereditary_closure_examples(unique_max):
    assert hereditary_closure(unique_max, {"u"}) == {"u", "v", "w"}
    assert hereditary_closure(unique_max, set()) == set()
    assert hereditary_closure(unique_max, {"w"}) == {"w"}


def test_hs_closure_examples(unique_max, mixed_max):
    assert hs_closure(mixed_max, {"u", "w"}) == {"u", "v", "w"}
    assert hs_closure(unique_max, {"w"}) == {"v", "w"}
    assert hs_closure(unique_max, {"v", "w"}) == {"v", "w"}


@given(graph_and_subset())
def test_hs_closure_is_a_closure_operator(pair):
    g, x = pair
    closed = hs_closure(g, x)
    assert x <= closed
    assert hs_closure(g, closed) == closed
    assert is_hereditary(g, closed) and is_saturated(g, closed)
    for v in g.vertices:
        assert closed <= hs_closure(g, x | {v})


def _check_reachability_and_closures(g, subsets):
    reach = reach_sets(g)
    family = hereditary_saturated_sets_brute(g)
    for u in g.vertices:
        assert g.descendants(u) == reach[u]
        assert g.m_of(u) == {w for w in g.vertices if u in reach[w]}
        for v in g.vertices:
            assert g.reaches(u, v) == (v in reach[u])
    for x in subsets:
        assert hereditary_closure(g, x) == frozenset().union(*(reach[v] for v in x))
        uppers = [h for h in family if x <= h]
        closed = hs_closure(g, x)
        assert closed in uppers and all(closed <= h for h in uppers)
        assert is_hereditary(g, x) == is_hereditary_brute(g, x)
        assert is_saturated(g, x) == is_saturated_brute(g, x)


@given(graph_and_subset())
def test_reachability_and_closures_match_the_oracles(pair):
    g, x = pair
    _check_reachability_and_closures(g, [x])


def test_reachability_and_closures_match_the_oracles_on_the_acceptance_corpus():
    rng = random.Random(3)
    for g in random_corpus(500):
        subsets = [frozenset(v for v in g.vertices if rng.random() < 0.4) for _ in range(3)]
        _check_reachability_and_closures(g, subsets)


def test_enumerate_HE_examples():
    assert sets_of(enumerate_HE(unique_maximal_graph())) == [set(), {"v", "w"}, {"u", "v", "w"}]
    assert sets_of(enumerate_HE(mixed_maximals_graph())) == [set(), {"u"}, {"w"}, {"u", "v", "w"}]
    assert sets_of(enumerate_HE(graph(["v"]))) == [set(), {"v"}]


def test_enumerate_HE_against_subset_filter():
    for g in random_corpus(60, seed=23):
        assert set(enumerate_HE(g).sets) == hereditary_saturated_sets_brute(g)


def test_enumerate_HE_caps():
    isolated = graph(["a", "b", "c", "d"])
    with pytest.raises(ResourceCapError):
        enumerate_HE(isolated, cap=15)
    assert len(enumerate_HE(isolated, cap=16).sets) == 16
    with pytest.raises(ResourceCapError):
        enumerate_HE(chain_graph(4), max_vertices=3)


@given(graphs(max_vertices=4, max_edges=6))
def test_lattice_is_intersection_and_join_closed(g):
    lat = enumerate_HE(g)
    family = set(lat.sets)
    for a in family:
        for b in family:
            assert a & b in family
            join = lat.join(a, b)
            assert join in family
            uppers = [s for s in family if a <= s and b <= s]
            assert join == min(uppers, key=len)


def test_lattice_membership():
    for g in random_corpus(30, seed=41):
        lat = enumerate_HE(g)
        for s in lat.sets:
            assert s in lat and set(s) in lat
        family = hereditary_saturated_sets_brute(g)
        for r in range(len(g.vertices) + 1):
            for subset in map(frozenset, combinations(g.vertices, r)):
                assert (subset in lat) == (subset in family)
    lat = enumerate_HE(unique_maximal_graph())
    assert {"w"} not in lat  # hereditary but not saturated: v must join
    assert {"u"} not in lat  # not hereditary


def _check_coatoms_and_order(g):
    lat = enumerate_HE(g)
    assert len(set(lat.sets)) == len(lat.sets)
    assert list(lat.sets) == sorted(lat.sets, key=lambda s: (len(s), sorted(s)))
    assert maximal_proper_elements(lat) == maximal_proper_brute(g)


@given(graphs())
def test_maximal_proper_matches_the_quadratic_scan(g):
    _check_coatoms_and_order(g)


def test_maximal_proper_matches_the_quadratic_scan_on_the_acceptance_corpus():
    for g in random_corpus(500, seed=20260809):
        _check_coatoms_and_order(g)


def test_enumerate_HE_refuses_within_bounded_work(monkeypatch):
    n, cap = 20, 10_000
    loops = [(f"{x}{i:02d}", f"v{i:02d}", f"v{i:02d}") for i in range(n) for x in "fg"]
    antichain = graph([f"v{i:02d}" for i in range(n)], loops)
    calls = 0
    close = _Masks.close

    def counting(self, mask):
        nonlocal calls
        calls += 1
        return close(self, mask)

    monkeypatch.setattr(_Masks, "close", counting)
    with pytest.raises(ResourceCapError, match=f"lattice exceeds cap {cap}"):
        enumerate_HE(antichain, cap=cap)
    assert 0 < calls <= (cap + 1) * n


@pytest.fixture
def lattice_work(monkeypatch):
    """Counts of ``enumerate_HE`` calls, ``_Masks`` builds and masks
    converted to vertex sets."""
    from lpaideals import cli, ideals

    counts = Counter()
    build, to_set, walk = _Masks.__init__, _Masks.to_set, lattice.enumerate_HE

    def counted_build(self, g):
        counts["masks"] += 1
        build(self, g)

    def counted_to_set(self, mask):
        counts["to_set"] += 1
        return to_set(self, mask)

    def counted_walk(*args):
        counts["enumerate_HE"] += 1
        return walk(*args)

    monkeypatch.setattr(_Masks, "__init__", counted_build)
    monkeypatch.setattr(_Masks, "to_set", counted_to_set)
    for module in (cli, ideals):
        monkeypatch.setattr(module, "enumerate_HE", counted_walk)
    return counts


@pytest.mark.parametrize(
    "command, expected",
    [
        # 4,096 sets printed, the 12 coatoms twice (lattice and report),
        # and the 12 M(d) that each prime enumeration reads
        ("analyze", {"enumerate_HE": 5, "masks": 1, "to_set": 4096 + 2 * 12 + 3 * 12}),
        ("hsets", {"enumerate_HE": 1, "masks": 1, "to_set": 4096 + 12}),
        ("maximals", {"enumerate_HE": 3, "masks": 1, "to_set": 12 + 2 * 12}),
        ("primes", {"enumerate_HE": 1, "masks": 1, "to_set": 12}),
    ],
)
def test_H_E_stays_in_masks_until_it_is_printed(lattice_work, tmp_path, capsys, command, expected):
    from lpaideals.cli import main

    path = tmp_path / "a12.json"
    path.write_text(serialize_graph(loop_antichain(12)), encoding="utf-8")
    assert main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    assert lattice_work == expected


def test_join_closes_on_the_lattice_masks(lattice_work):
    """On a graph already indexed, nothing builds the index again."""
    g = loop_antichain(12)
    lat = lattice.enumerate_HE(g)
    lattice_work.clear()
    assert lat.join({"a1"}, {"a2", "a3"}) == {"a1", "a2", "a3"}
    assert {"a1", "a2"} in lat and {"a1", "x"} not in lat
    assert lattice_work == {"to_set": 1}
    assert hs_closure(g, {"a1"}) == hereditary_closure(g, {"a1"}) == {"a1"}
    assert g.descendants("a1") == g.m_of("a1") == {"a1"}
    assert "masks" not in lattice_work


@pytest.fixture
def walk_closures(monkeypatch):
    """The closures that the lattice walk itself takes: ``_Masks.close``
    calls made from ``enumerate_HE`` (the breaking-vertex checks of the
    primes close their H too, outside the walk)."""
    calls = []
    close, walk = _Masks.close, lattice.enumerate_HE.__code__

    def counted(self, mask):
        if sys._getframe(1).f_code is walk:
            calls.append(mask)
        return close(self, mask)

    monkeypatch.setattr(_Masks, "close", counted)
    return calls


def test_analyze_walks_H_E_once(walk_closures, tmp_path, capsys):
    """``analyze`` asks for H_E five times and walks it once, as ``hsets`` does."""
    from lpaideals.cli import main

    path = tmp_path / "a12.json"
    path.write_text(serialize_graph(loop_antichain(12)), encoding="utf-8")
    work = {}
    for command in ("hsets", "analyze"):
        walk_closures.clear()
        assert main([command, str(path), "--json"]) == 0
        work[command] = len(walk_closures)
    capsys.readouterr()
    assert work["analyze"] == work["hsets"] >= 4096


def _refusal(call):
    """The message of the ResourceCapError that ``call()`` raises."""
    with pytest.raises(ResourceCapError) as exc:
        call()
    return str(exc.value)


def test_a_refused_walk_keeps_nothing(walk_closures):
    g = loop_antichain(4)
    assert _refusal(lambda: enumerate_HE(g, cap=10)) == "lattice exceeds cap 10"
    walk_closures.clear()
    assert len(enumerate_HE(g).sets) == 16
    assert walk_closures


def test_a_kept_walk_answers_each_cap_as_a_fresh_walk(walk_closures):
    fresh = [
        _refusal(lambda: enumerate_HE(loop_antichain(4), cap=15)),
        _refusal(lambda: enumerate_HE(loop_antichain(4), cap=1)),
        _refusal(lambda: enumerate_HE(loop_antichain(4), max_vertices=3)),
    ]
    g = loop_antichain(4)
    lat = enumerate_HE(g)
    walk_closures.clear()
    assert [
        _refusal(lambda: enumerate_HE(g, cap=15)),
        _refusal(lambda: enumerate_HE(g, cap=1)),
        _refusal(lambda: enumerate_HE(g, max_vertices=3)),
    ] == fresh
    again = enumerate_HE(g, cap=16)
    assert again is not lat and again.sets == lat.sets
    assert walk_closures == []
    assert lat.to_json_dict() == enumerate_HE(loop_antichain(4)).to_json_dict()


def test_maximal_proper_examples():
    assert maximal_proper_elements(enumerate_HE(unique_maximal_graph())) == [{"v", "w"}]
    assert sorted(map(sorted, maximal_proper_elements(enumerate_HE(mixed_maximals_graph())))) == [
        ["u"],
        ["w"],
    ]
    lat = enumerate_HE(chain_graph(5))
    assert maximal_proper_elements(lat) == [{"v1", "v2", "v3", "v4"}]


def test_breaking_vertices_examples(omega):
    for h in enumerate_HE(unique_maximal_graph()).sets:
        assert breaking_vertices(unique_maximal_graph(), h) == set()
    assert breaking_vertices(omega, {"w"}) == {"v"}
    assert breaking_vertices(omega, set()) == set()
    with pytest.raises(GraphError):
        breaking_vertices(omega, {"v"})  # not hereditary


def _assert_breaking_vertices_agree(g):
    """B_H as the raw scan gives it on each H in H_E, and GraphError on
    every other subset."""
    family = hereditary_saturated_sets_brute(g)
    assert set(enumerate_HE(g).sets) == family
    for r in range(len(g.vertices) + 1):
        for subset in map(frozenset, combinations(g.vertices, r)):
            if subset in family:
                assert breaking_vertices(g, subset) == breaking_vertices_brute(g, subset)
            else:
                with pytest.raises(GraphError, match="not hereditary saturated"):
                    breaking_vertices(g, subset)


@given(graphs())
def test_breaking_vertices_against_the_oracle(g):
    _assert_breaking_vertices_agree(g)


def test_breaking_vertices_against_the_oracle_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_breaking_vertices_agree(g)


def test_breaking_needs_a_named_escape():
    # all edges of the emitter fall into H: nothing breaks
    g = graph(["v", "w"], [], [("v", "w")])
    assert breaking_vertices(g, {"w"}) == set()


def test_admissible_pair_validation(omega):
    AdmissiblePair(omega, frozenset({"w"}), frozenset({"v"}))
    with pytest.raises(GraphError):
        AdmissiblePair(omega, frozenset({"w"}), frozenset({"w"}))
    with pytest.raises(GraphError):
        AdmissiblePair(omega, frozenset({"v"}), frozenset())


def test_leq_prime_examples(omega):
    b = mixed_maximals_graph()
    bottom = AdmissiblePair(b, frozenset(), frozenset())
    for h in enumerate_HE(b).sets:
        assert leq_prime(bottom, AdmissiblePair(b, h, frozenset()))
    small = AdmissiblePair(omega, frozenset({"w"}), frozenset())
    large = AdmissiblePair(omega, frozenset({"w"}), frozenset({"v"}))
    assert leq_prime(small, large)
    assert not leq_prime(large, small)
    left = AdmissiblePair(b, frozenset({"u"}), frozenset())
    right = AdmissiblePair(b, frozenset({"w"}), frozenset())
    assert not leq_prime(left, right)
    assert not leq_prime(right, left)
    with pytest.raises(GraphError):
        leq_prime(small, left)


def all_admissible_pairs(g):
    pairs = []
    for h in enumerate_HE(g).sets:
        b = breaking_vertices(g, h)
        subsets = [frozenset()]
        for v in sorted(b):
            subsets += [s | {v} for s in subsets]
        pairs += [AdmissiblePair(g, h, s) for s in subsets]
    return pairs


def test_leq_prime_is_a_partial_order():
    for g in random_corpus(25, seed=29, max_vertices=5, max_named=8):
        pairs = all_admissible_pairs(g)
        for p in pairs:
            assert leq_prime(p, p)
            for q in pairs:
                if leq_prime(p, q) and leq_prime(q, p):
                    assert p == q
                for r in pairs:
                    if leq_prime(p, q) and leq_prime(q, r):
                        assert leq_prime(p, r)


def test_quotient_examples(unique_max, omega):
    q = quotient_graph(unique_max, AdmissiblePair(unique_max, frozenset({"v", "w"}), frozenset()))
    assert q.vertices == ("u",)
    assert sorted(e.id for e in q.edges) == ["f1", "g1"]

    identity = quotient_graph(unique_max, AdmissiblePair(unique_max, frozenset(), frozenset()))
    assert identity == unique_max

    q2 = quotient_graph(omega, AdmissiblePair(omega, frozenset({"w"}), frozenset()))
    assert q2.vertices == ("v", "v'")
    assert {(e.id, e.src, e.dst) for e in q2.edges} == {("f", "v", "v"), ("f'", "v", "v'")}
    assert q2.omega_bundles == ()

    q3 = quotient_graph(omega, AdmissiblePair(omega, frozenset({"w"}), frozenset({"v"})))
    assert q3.vertices == ("v",)
    assert [e.id for e in q3.edges] == ["f"]


def test_quotient_bundle_into_unbroken_breaking_vertex():
    # x sends a bundle into the breaking vertex w; the quotient keeps it
    # and doubles it onto the primed sink copy.
    g = graph(
        ["h", "w", "x"],
        [("a", "w", "x"), ("l", "x", "x")],
        [("w", "h"), ("x", "w")],
    )
    assert breaking_vertices(g, {"h"}) == {"w"}
    q = quotient_graph(g, AdmissiblePair(g, frozenset({"h"}), frozenset()))
    assert q.vertices == ("w", "w'", "x")
    assert {(b.src, b.dst) for b in q.omega_bundles} == {("x", "w"), ("x", "w'")}
    assert {(e.id, e.src, e.dst) for e in q.edges} == {("a", "w", "x"), ("l", "x", "x")}
    assert all(not q.out_edges("w'") and not q.out_bundles("w'") for _ in [0])


def test_quotient_output_is_valid_and_reusable():
    for g in random_corpus(40, seed=31):
        lat = enumerate_HE(g)
        for h in lat.sets:
            if h == set(g.vertices):
                continue
            b = breaking_vertices(g, h)
            for s in (frozenset(), b):
                q = quotient_graph(g, AdmissiblePair(g, h, s))
                assert parse_graph(serialize_graph(q)) == q
                for v in q.vertices:
                    if v.endswith("'") and v[:-1] in b:
                        assert not q.out_edges(v) and not q.out_bundles(v)


def test_quotient_of_omega_free_graph_is_induced_restriction():
    for g in random_corpus(40, seed=37, with_bundles=False):
        for h in enumerate_HE(g).sets:
            kept = [v for v in g.vertices if v not in h]
            if not kept:
                continue
            q = quotient_graph(g, AdmissiblePair(g, h, frozenset()))
            assert q.vertices == tuple(kept)
            assert q.edges == tuple(e for e in g.edges if e.dst not in h)


def test_hsets_serialization(unique_max):
    assert enumerate_HE(unique_max).to_json_dict() == {
        "sets": [[], ["v", "w"], ["u", "v", "w"]],
        "maximal_proper": [["v", "w"]],
    }


def test_quotient_lattice_is_the_upper_interval():
    # for omega-free graphs the hereditary saturated sets of the
    # quotient at (H, {}) are exactly the sets H2 - H with H2 above H
    for g in random_corpus(60, seed=101, with_bundles=False):
        lat = set(enumerate_HE(g).sets)
        full = frozenset(g.vertices)
        for h in lat:
            if h == full:
                continue
            q = quotient_graph(g, AdmissiblePair(g, h, frozenset()))
            assert set(enumerate_HE(q).sets) == {h2 - h for h2 in lat if h <= h2}
