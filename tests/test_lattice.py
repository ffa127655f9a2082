import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given

from conftest import (
    breaker_below_coatom,
    chain_graph,
    clique_with_loop,
    graph,
    graph_and_subset,
    graphs,
    omega_graph,
    unique_maximal_graph,
    mixed_maximals_graph,
    random_corpus,
    sparse_graph,
)
from oracles import (
    breaking_vertices_brute,
    hereditary_saturated_sets_brute,
    is_hereditary_brute,
    is_saturated_brute,
    maximal_proper_brute,
    next_closure_sets,
    reach_sets,
)
from test_golden import escaped_ids, loop_antichain
from lpaideals import (
    AdmissiblePair,
    DirectedGraph,
    GraphError,
    ResourceCapError,
    breaking_vertices,
    enumerate_HE,
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


def _hereditary_closure(g, subset):
    """The index's hereditary closure of a vertex set, the first step of
    ``hs_closure``."""
    masks = g._masks
    return masks.to_set(masks.hereditary(masks.of(subset)))


def test_hereditary_closure_examples(unique_max):
    assert _hereditary_closure(unique_max, {"u"}) == {"u", "v", "w"} == unique_max.descendants("u")
    assert _hereditary_closure(unique_max, set()) == set()
    assert _hereditary_closure(unique_max, {"w"}) == {"w"}


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
    for x in subsets:
        assert _hereditary_closure(g, x) == frozenset().union(*(reach[v] for v in x))
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


def _check_each_cap_against_the_oracle(g):
    """At every cap c from 1 to |H_E| + 1, on a fresh graph each time,
    ``enumerate_HE`` refuses exactly when the subset filter finds more
    than c sets, with the message of a refusal, and otherwise lists the
    filter's sets; so does the walk itself (``_walk``), read at cap c."""
    family = hereditary_saturated_sets_brute(g)
    for cap in range(1, len(family) + 2):
        fresh = DirectedGraph(g.vertices, g.edges, g.omega_bundles)
        if len(family) > cap:
            with pytest.raises(ResourceCapError, match=f"^lattice exceeds cap {cap}$"):
                enumerate_HE(fresh, cap=cap)
            with pytest.raises(ResourceCapError, match=f"^lattice exceeds cap {cap}$"):
                lattice._walk(fresh._masks, cap)
        else:
            assert set(enumerate_HE(fresh, cap=cap).sets) == family
            assert set(map(fresh._masks.to_set, lattice._walk(fresh._masks, cap))) == family


@given(graphs())
def test_the_walk_refuses_at_each_cap_as_the_oracle_says(g):
    _check_each_cap_against_the_oracle(g)


def test_the_walk_refuses_at_each_cap_as_the_oracle_says_on_the_acceptance_corpus():
    for g in random_corpus(500, seed=20260809) + [omega_graph(), escaped_ids(), loop_antichain(5)]:
        _check_each_cap_against_the_oracle(g)


def _check_walk_against_next_closure(g, max_vertices=lattice.MAX_EXACT_VERTICES):
    """The walk over the closed tails finds the sets that NextClosure
    finds, each once: a walk capped at their number answers."""
    closed = next_closure_sets(g)
    assert enumerate_HE(g, cap=len(closed), max_vertices=max_vertices)._closed == closed
    return closed


@given(graphs())
def test_walk_matches_next_closure(g):
    _check_walk_against_next_closure(g)


def test_walk_matches_next_closure_on_fixed_graphs():
    for g in random_corpus(500, seed=20260809):
        _check_walk_against_next_closure(g)
    for n in range(1, 15):
        assert len(_check_walk_against_next_closure(loop_antichain(n))) == 2**n
    _check_walk_against_next_closure(clique_with_loop(10))
    # far beyond the subset filter: 2^200 subsets
    assert len(_check_walk_against_next_closure(sparse_graph(200), max_vertices=1000)) == 513


def _check_H_E_is_the_down_closed_sets_of_closed_tails(g):
    """H -> {closed tails missing H} is a bijection from H_E onto the
    down-closed sets of closed tails, so |H_E| <= 2^t, with H_E from the
    subset filter and the closed tails read off the raw M(d); and the
    index's closed tails are those, each mapped to the vertices d whose
    M(d) is a closed tail strictly inside it."""
    full = frozenset(g.vertices)
    family = hereditary_saturated_sets_brute(g)
    reach = reach_sets(g)
    m_of = {d: frozenset(w for w in g.vertices if d in reach[w]) for d in g.vertices}
    tails = {t for t in m_of.values() if full - t in family}
    down_closed = {
        frozenset(chosen)
        for r in range(len(tails) + 1)
        for chosen in combinations(tails, r)
        if all(s in chosen for t in chosen for s in tails if s < t)
    }
    image = [frozenset(t for t in tails if not t & h) for h in family]
    assert len(set(image)) == len(family) and set(image) == down_closed
    assert len(family) <= 2 ** len(tails)
    masks = g._masks
    assert [masks.to_set(t) for t in masks.tails] == sorted(tails, key=masks.of)
    for t, inside in masks.tails.items():
        below = {s for s in tails if s < masks.to_set(t)}
        assert masks.to_set(inside) == {d for d in g.vertices if m_of[d] in below}


@given(graphs())
def test_H_E_is_the_down_closed_sets_of_closed_tails(g):
    _check_H_E_is_the_down_closed_sets_of_closed_tails(g)


def test_H_E_is_the_down_closed_sets_of_closed_tails_on_the_acceptance_corpus():
    for g in random_corpus(500, seed=20260809):
        _check_H_E_is_the_down_closed_sets_of_closed_tails(g)


def test_enumerate_HE_caps():
    isolated = graph(["a", "b", "c", "d"])
    with pytest.raises(ResourceCapError):
        enumerate_HE(isolated, cap=15)
    assert len(enumerate_HE(isolated, cap=16).sets) == 16
    with pytest.raises(ResourceCapError):
        enumerate_HE(chain_graph(4), max_vertices=3)
    with pytest.raises(ValueError, match="^cap must be positive$"):
        enumerate_HE(isolated, cap=0)


@given(graphs(max_vertices=4, max_edges=6))
def test_lattice_is_intersection_and_join_closed(g):
    lat = enumerate_HE(g)
    family = set(lat.sets)
    for a in family:
        for b in family:
            assert a & b in family
            join = hs_closure(g, a | b)
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
    assert {"v", "w", "nope"} not in lat and {"v", "w", 1} not in lat  # ids of no vertex
    assert [["v"], "w"] not in lat and [{"v"}] not in lat  # unhashable items
    assert 5 not in lat and None not in lat  # no collection at all
    assert "u" not in lat and "vw" not in lat  # one string is no vertex set


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


def _check_printed_ids(g):
    """The print path reads each set's sorted ids off its mask, in the
    order of ``sets``."""
    lat = enumerate_HE(g)
    masks = g._masks
    descendants = {masks.hereditary(1 << i) for i in range(len(g.vertices))}
    for m in lat._closed | descendants | set(masks.ancestors):
        assert masks.ids(m) == sorted(masks.to_set(m))
    printed = [masks.ids(m) for m in masks.in_order(lat._closed)]
    assert printed == [sorted(s) for s in lat.sets] == lat.to_json_dict()["sets"]


@given(graphs())
def test_printed_ids_are_the_sorted_sets(g):
    _check_printed_ids(g)


def test_printed_ids_are_the_sorted_sets_on_fixed_graphs():
    for g in random_corpus(500, seed=20260809) + [escaped_ids(), graph(["v"])]:
        _check_printed_ids(g)
    for n in range(1, 15):
        _check_printed_ids(loop_antichain(n))


class _CountedMask(int):
    """A mask that counts the ``&`` tests it takes part in."""

    tests = 0

    def __and__(self, other):
        _CountedMask.tests += 1
        return int.__and__(self, other)

    __rand__ = __and__


def _traced_peak(work) -> int:
    """The tracemalloc peak, in bytes, while ``work()`` runs."""
    tracemalloc.start()
    try:
        work()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_enumerate_HE_refuses_within_bounded_work():
    """A walk makes one mask test per later closed tail for each set it
    finds, so it refuses after at most (cap + 1) x t tests: on an
    antichain of 20 loops, t = 20.  Each tail's ``inside`` mask counts
    the ``&`` tests it takes part in, so the count reads no source line
    and holds whether or not comprehensions are inlined.  A refusal holds
    the cap + 1 masks it found and little more: its tracemalloc peak is
    within 1 % of that of a list of cap + 1 masks as wide, appended one
    by one (the depth-first walk this one replaced read 0.3 % above it
    on CPython 3.11, and this one 0.1 % below)."""
    n, cap = 20, 10_000
    loops = [(f"{x}{i:02d}", f"v{i:02d}", f"v{i:02d}") for i in range(n) for x in "fg"]
    antichain = graph([f"v{i:02d}" for i in range(n)], loops)
    masks = antichain._masks
    assert len(masks.tails) == n

    def refuse():
        with pytest.raises(ResourceCapError, match=f"lattice exceeds cap {cap}"):
            enumerate_HE(antichain, cap=cap)

    def hold_cap_plus_one_masks():
        held = []
        for i in range(cap + 1):
            held.append(masks.full & ~i)

    assert _traced_peak(refuse) <= 1.01 * _traced_peak(hold_cap_plus_one_masks)
    masks.tails = {tail: _CountedMask(inside) for tail, inside in masks.tails.items()}
    _CountedMask.tests = 0
    refuse()
    assert 0 < _CountedMask.tests <= (cap + 1) * n


def test_a_large_lattice_refuses_at_once(tmp_path, capsys):
    """``--cap`` bounds the walk's work: on 1,000 vertices the lattice
    refuses after at most about cap x t mask tests, t the closed tails
    (47 here).  Lifting ``--max-vertices`` alone answers on 200
    vertices."""
    from lpaideals.cli import main

    path = tmp_path / "sparse1000.json"
    path.write_text(serialize_graph(sparse_graph(1000)), encoding="utf-8")
    for command in ("hsets", "primes"):
        assert main([command, str(path), "--max-vertices", "1000", "--cap", "20000"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: lattice exceeds cap 20000\n")
    path = tmp_path / "sparse200.json"
    path.write_text(serialize_graph(sparse_graph(200)), encoding="utf-8")
    assert main(["hsets", str(path), "--max-vertices", "1000", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["sets"]) == 513


@pytest.fixture
def lattice_work(monkeypatch):
    """Counts of ``enumerate_HE`` calls, ``_Masks`` builds and masks
    converted to vertex sets.  The walk is patched where it is defined
    and where ``ideals`` binds it by name; ``cli`` reads it off
    ``lattice`` when a command runs."""
    from lpaideals import ideals

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
    for module in (lattice, ideals):
        monkeypatch.setattr(module, "enumerate_HE", counted_walk)
    return counts


@pytest.mark.parametrize(
    "command, expected",
    [
        # the 12 coatoms once, where they are printed, and the 12 M(d)
        # that the one build of the per-tail table reads (later calls read
        # the kept table); the 4,096 sets print off the masks
        ("analyze", {"enumerate_HE": 5, "masks": 1, "to_set": 12 + 12}),
        ("hsets", {"enumerate_HE": 1, "masks": 1, "to_set": 12}),
        ("maximals", {"enumerate_HE": 3, "masks": 1, "to_set": 12}),
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


def test_the_coatoms_are_scanned_once_per_printed_list(monkeypatch, tmp_path, capsys):
    """A command scans H_E for its coatoms only to print them: ``analyze``
    and ``hsets`` print the maximal proper sets once each, and the
    maximal-ideal report answers both existence questions by theorem, so
    ``maximals`` and ``primes`` scan nothing.  Every reader of the coatoms
    reads them off ``lattice`` at the call, so one patch there sees each."""
    from lpaideals import ideals
    from lpaideals.cli import main

    assert not hasattr(ideals, "maximal_proper_elements")
    scans = []
    original = lattice.maximal_proper_elements
    monkeypatch.setattr(lattice, "maximal_proper_elements", lambda lat: scans.append(lat) or original(lat))
    path = tmp_path / "k4.json"
    path.write_text(serialize_graph(clique_with_loop(4)), encoding="utf-8")
    expected = {"analyze": 1, "hsets": 1, "maximals": 0, "primes": 0}
    found = {}
    for command in expected:
        for flags in ([], ["--json"]):
            scans.clear()
            assert main([command, str(path), *flags]) == 0
            found[(command, *flags)] = len(scans)
    capsys.readouterr()
    assert found == {(command, *flags): n for command, n in expected.items() for flags in ([], ["--json"])}


@pytest.mark.parametrize("command", ["hsets", "analyze"])
@pytest.mark.parametrize("flags", [["--json"], []])
def test_printing_H_E_builds_no_vertex_sets(monkeypatch, tmp_path, capsys, command, flags):
    """``HSLattice.sets`` is there for library callers: no command builds it."""
    from lpaideals.cli import main

    def refused(lat):
        raise AssertionError("HSLattice.sets was built")

    monkeypatch.setattr(lattice.HSLattice, "sets", property(refused))
    path = tmp_path / "a4.json"
    path.write_text(serialize_graph(loop_antichain(4)), encoding="utf-8")
    assert main([command, str(path), *flags]) == 0
    capsys.readouterr()


def test_join_closes_on_the_lattice_masks(lattice_work):
    """On a graph already indexed, nothing builds the index again: the
    join of two sets of H_E is the closure of their union."""
    g = loop_antichain(12)
    lat = lattice.enumerate_HE(g)
    lattice_work.clear()
    assert hs_closure(g, {"a1"} | {"a2", "a3"}) == {"a1", "a2", "a3"}
    assert {"a1", "a2"} in lat and {"a1", "x"} not in lat
    assert lattice_work == {"to_set": 1}
    assert hs_closure(g, {"a1"}) == _hereditary_closure(g, {"a1"}) == {"a1"}
    assert g.descendants("a1") == g.m_of("a1") == {"a1"}
    assert "masks" not in lattice_work


@pytest.fixture
def walked_sets(monkeypatch):
    """The sets that each walk of H_E (``lattice._walk``) returns, which
    ``enumerate_HE`` or the first read of a lattice's masks runs.  A
    refused walk returns none."""
    found = []
    walk = lattice._walk

    def counted_walk(masks, cap):
        closed = walk(masks, cap)
        found.extend(closed)
        return closed

    monkeypatch.setattr(lattice, "_walk", counted_walk)
    return found


def test_analyze_walks_H_E_once(walked_sets, tmp_path, capsys):
    """``analyze`` asks for H_E five times and walks it once, as ``hsets`` does."""
    from lpaideals.cli import main

    path = tmp_path / "a12.json"
    path.write_text(serialize_graph(loop_antichain(12)), encoding="utf-8")
    work = {}
    for command in ("hsets", "analyze"):
        walked_sets.clear()
        assert main([command, str(path), "--json"]) == 0
        work[command] = len(walked_sets)
    capsys.readouterr()
    assert work["analyze"] == work["hsets"] >= 4096


def _assert_no_walk(walked_sets, monkeypatch, tmp_path, capsys, g, argv):
    from lpaideals import cli

    loaded = []
    load = cli._load_graph
    monkeypatch.setattr(cli, "_load_graph", lambda path: loaded.append(load(path)) or loaded[-1])
    path = tmp_path / "graph.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert walked_sets == []
    (g,) = loaded
    assert g._masks.closed_sets is None and g._masks.by_tail is not None


@pytest.mark.parametrize("command", ["primes", "maximals"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_primes_and_maximals_never_walk_H_E(walked_sets, monkeypatch, tmp_path, capsys, command, flags):
    """On ``A_12`` (12 closed tails, so at most 4,096 sets, within the
    default cap) the caps are decided at the call, the primes are read
    off the M(d), and nothing reads the lattice's masks."""
    _assert_no_walk(walked_sets, monkeypatch, tmp_path, capsys, loop_antichain(12), [command, *flags])


@pytest.mark.parametrize("command", ["primes", "maximals"])
def test_primes_and_maximals_never_walk_H_E_on_sparse_graph(walked_sets, monkeypatch, tmp_path, capsys, command):
    """``sparse_graph(200)`` has 21 strongly connected components but 10
    closed tails, so 2^10 sets bound H_E within the default cap and
    ``primes`` and ``maximals`` decide it with no walk; a bound of 2^21
    would pass the cap and walk all 513 sets."""
    g = sparse_graph(200)
    assert len(g._masks.tails) == 10
    argv = [command, "--max-vertices", "1000", "--json"]
    _assert_no_walk(walked_sets, monkeypatch, tmp_path, capsys, g, argv)


def test_the_coatoms_are_read_off_the_index_with_no_walk(walked_sets):
    """``maximal_proper_elements`` reads the least closed tails
    (``_Masks.least_tails``), not the lattice's masks: on A_16 (65,536
    sets) it makes no walk and keeps none."""
    g = loop_antichain(16)
    coatoms = lattice.maximal_proper_elements(enumerate_HE(g))
    assert walked_sets == [] and g._masks.closed_sets is None
    full = frozenset(g.vertices)
    assert len(coatoms) == 16 and set(coatoms) == {full - {v} for v in full}


def test_membership_is_decided_by_the_closure_with_no_walk(monkeypatch):
    """``in`` asks the index's closure, as ``is_hereditary`` does, not the
    lattice's masks: on A_18 (262,144 sets) it answers with no walk and
    keeps none."""

    def refuse(masks, cap):
        raise AssertionError("membership walked H_E")

    monkeypatch.setattr(lattice, "_walk", refuse)
    g = loop_antichain(18)
    lat = enumerate_HE(g)
    assert {"a1", "a2"} in lat and set() in lat and frozenset(g.vertices) in lat
    assert {"a1", "b1"} not in lat and ["a1"] in lat
    assert g._masks.closed_sets is None


def _refusal(call):
    """The message of the ResourceCapError that ``call()`` raises."""
    with pytest.raises(ResourceCapError) as exc:
        call()
    return str(exc.value)


def test_a_refused_walk_keeps_nothing(walked_sets):
    g = loop_antichain(4)
    assert _refusal(lambda: enumerate_HE(g, cap=10)) == "lattice exceeds cap 10"
    assert walked_sets == [] and g._masks.closed_sets is None
    assert len(enumerate_HE(g).sets) == 16
    assert len(walked_sets) == 16


def test_a_kept_walk_answers_each_cap_as_a_fresh_walk(walked_sets):
    fresh = [
        _refusal(lambda: enumerate_HE(loop_antichain(4), cap=15)),
        _refusal(lambda: enumerate_HE(loop_antichain(4), cap=1)),
        _refusal(lambda: enumerate_HE(loop_antichain(4), max_vertices=3)),
    ]
    g = loop_antichain(4)
    lat = enumerate_HE(g)
    assert len(lat.sets) == 16  # walked on first read, and kept
    walked_sets.clear()
    assert [
        _refusal(lambda: enumerate_HE(g, cap=15)),
        _refusal(lambda: enumerate_HE(g, cap=1)),
        _refusal(lambda: enumerate_HE(g, max_vertices=3)),
    ] == fresh
    again = enumerate_HE(g, cap=16)
    assert again is not lat and again.sets == lat.sets
    assert walked_sets == []
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

    with pytest.raises(GraphError, match="pair was built for a different graph"):
        quotient_graph(unique_max, AdmissiblePair(omega, frozenset({"w"})))


@pytest.mark.parametrize("flags", [["--H", "b"], ["--H", "b", "--S", "a"], ["--H", "b,c"]])
def test_quotient_checks_H_once(monkeypatch, tmp_path, capsys, flags):
    """On f1 (the edge a -> c and a bundle a -> b) ``AdmissiblePair``
    checks that H is hereditary saturated and checks S against B_H
    (``breaking_vertices``), which it keeps; ``quotient_graph`` reads the
    pair's B_H and checks nothing again: one ``_Masks.close``, one
    ``breaking_vertices`` and one ``_Masks.breaking`` per command."""
    from lpaideals.cli import main

    calls = Counter()
    for owner, name in ((_Masks, "close"), (lattice, "breaking_vertices"), (_Masks, "breaking")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    path = tmp_path / "f1.json"
    path.write_text(serialize_graph(breaker_below_coatom()), encoding="utf-8")
    assert main(["quotient", str(path), *flags]) == 0
    capsys.readouterr()
    assert calls == {"close": 1, "breaking_vertices": 1, "breaking": 1}


def test_quotient_refuses_primed_ids_that_collide():
    """The emitter u breaks {w} (a bundle into w, a named edge e out), so
    the quotient at ({w}, {}) adds u' and the primed copy of each edge
    into u: a vertex u' or an edge x' already there collides."""
    vertex = graph(["u", "u'", "w"], [("e", "u", "u'")], [("u", "w")])
    with pytest.raises(GraphError) as exc:
        quotient_graph(vertex, AdmissiblePair(vertex, frozenset({"w"})))
    assert str(exc.value) == """primed vertex ids collide with existing ids: ["u'"]"""
    edge = graph(["u", "w", "x"], [("e", "u", "x"), ("x", "x", "u"), ("x'", "x", "x")], [("u", "w")])
    with pytest.raises(GraphError) as exc:
        quotient_graph(edge, AdmissiblePair(edge, frozenset({"w"})))
    assert str(exc.value) == """primed edge id "x'" collides with an existing edge"""


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
