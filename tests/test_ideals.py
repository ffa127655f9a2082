import gc
import weakref

import pytest
from hypothesis import assume, given

from conftest import (
    breaker_below_coatom,
    breaker_below_coatom_with_loop,
    breaking_emitters,
    chain_graph,
    clique_with_loop,
    cross_bundle_cycle,
    graph,
    graphs,
    omega_graph,
    unique_maximal_graph,
    mixed_maximals_graph,
    random_corpus,
)
from oracles import breaking_vertices_brute, hereditary_saturated_sets_brute, maximals_brute
from test_lattice import _refusal, all_admissible_pairs
from lpaideals import (
    AdmissiblePair,
    GradedIdeal,
    GraphError,
    NonGradedFamily,
    UnknownVertexError,
    breaking_vertices,
    classify_prime,
    condition_L,
    enumerate_HE,
    enumerate_primes,
    existence_report,
    gr_of,
    hs_closure,
    is_downward_directed,
    is_hereditary,
    is_maximal_tail,
    is_saturated,
    leq_prime,
    make_cycle,
    maximal_graded_ideals,
    maximal_nongraded_families,
    maximal_proper_elements,
    quotient_graph,
    ResourceCapError,
)
from lpaideals.ideals import descriptor_sort_key


def pair(g, h, s=()):
    return AdmissiblePair(g, frozenset(h), frozenset(s))


def graded(g, h, s=()):
    return GradedIdeal(pair(g, h, s))


def test_classify_prime_fixture_examples(unique_max, mixed_max):
    assert classify_prime(unique_max, graded(unique_max, set()))
    assert not classify_prime(mixed_max, graded(mixed_max, set()))
    family = NonGradedFamily(unique_max, frozenset(), make_cycle(unique_max, ["c"]))
    assert classify_prime(unique_max, family)


def test_classify_prime_omega_clauses(omega):
    # clause (i) with all breaking vertices, clause (ii) with one dropped
    assert classify_prime(omega, graded(omega, {"w"}, {"v"}))
    assert classify_prime(omega, graded(omega, {"w"}))
    assert classify_prime(omega, graded(omega, set()))
    family = NonGradedFamily(omega, frozenset({"w"}), make_cycle(omega, ["f"]))
    assert classify_prime(omega, family)


def test_classify_prime_rejects_malformed(mixed_max, omega):
    # S must be B_H or B_H minus exactly one vertex
    two_bundles = graph(
        ["h", "x", "y"],
        [("a", "x", "h"), ("b", "y", "h"), ("lx", "x", "y"), ("ly", "y", "x")],
        [("x", "h"), ("y", "h")],
    )
    b_h = breaking_vertices(two_bundles, {"h"})
    assert b_h == {"x", "y"}
    with pytest.raises(GraphError):
        classify_prime(two_bundles, graded(two_bundles, {"h"}))
    with pytest.raises(GraphError):
        classify_prime(mixed_max, GradedIdeal(pair(omega, set())))


def test_full_vertex_set_is_not_a_prime(unique_max):
    assert not classify_prime(unique_max, graded(unique_max, {"u", "v", "w"}))


def test_nongraded_family_validation(unique_max):
    with pytest.raises(GraphError):
        # f1 lies on a second cycle, so it is not a cycle without K
        NonGradedFamily(unique_max, frozenset(), make_cycle(unique_max, ["f1"]))
    with pytest.raises(GraphError):
        # the witness cycle may not meet H
        NonGradedFamily(unique_max, frozenset({"v", "w"}), make_cycle(unique_max, ["c"]))


def test_enumerate_primes_unique_maximal_fixture(unique_max):
    primes = enumerate_primes(unique_max)
    assert [d.to_json_dict() for d in primes] == [
        {"kind": "graded", "H": [], "S": []},
        {
            "kind": "nongraded_family",
            "H": [],
            "cycle": ["c"],
            "poly": "irreducible f in K[x,x^-1]",
        },
        {"kind": "graded", "H": ["v", "w"], "S": []},
    ]


def test_cross_bundle_cycle_has_one_prime_and_one_maximal():
    # f2 is strongly connected through its bundle and satisfies (K), so
    # L_K(E) is simple: the zero ideal I({}, {}) is its only prime and
    # its unique maximal ideal, and the loop c carries no family
    g = cross_bundle_cycle()
    assert enumerate_primes(g) == [graded(g, set())]
    report = existence_report(g)
    assert report.graded_maximals == (pair(g, set()),)
    assert report.nongraded_maximal_families == ()
    assert report.unique_maximal == graded(g, set())
    with pytest.raises(GraphError):
        NonGradedFamily(g, frozenset(), make_cycle(g, ["c"]))


def test_enumerate_primes_trivial_and_chain():
    single = graph(["v"])
    assert [d.to_json_dict() for d in enumerate_primes(single)] == [
        {"kind": "graded", "H": [], "S": []}
    ]
    primes = enumerate_primes(chain_graph(3))
    assert all(isinstance(d, GradedIdeal) for d in primes)
    assert [sorted(d.pair.H) for d in primes] == [[], ["v1"], ["v1", "v2"]]


def test_gr_of_examples(unique_max, mixed_max, omega):
    family_a = NonGradedFamily(unique_max, frozenset(), make_cycle(unique_max, ["c"]))
    assert gr_of(family_a) == pair(unique_max, set())
    self_pair = graded(mixed_max, {"w"})
    assert gr_of(self_pair) == self_pair.pair
    family_b = NonGradedFamily(mixed_max, frozenset({"u"}), make_cycle(mixed_max, ["c"]))
    assert gr_of(family_b) == pair(mixed_max, {"u"})
    family_o = NonGradedFamily(omega, frozenset({"w"}), make_cycle(omega, ["f"]))
    assert gr_of(family_o) == pair(omega, {"w"}, {"v"})


def test_maximal_graded_ideals_examples(unique_max, mixed_max):
    assert maximal_graded_ideals(unique_max) == [pair(unique_max, {"v", "w"})]
    assert maximal_graded_ideals(mixed_max) == [pair(mixed_max, {"w"})]
    # u -> v: the lattice is {0, everything}, so the zero ideal is the
    # unique maximal ideal (the algebra is simple)
    two_path = graph(["u", "v"], [("a", "u", "v")])
    assert maximal_graded_ideals(two_path) == [pair(two_path, set())]


def test_maximal_nongraded_families_examples(unique_max, mixed_max):
    assert maximal_nongraded_families(unique_max) == []
    fams = maximal_nongraded_families(mixed_max)
    assert [(sorted(f.H), f.cycle.edges) for f in fams] == [(["u"], ("c",))]
    single_loop = graph(["v"], [("l", "v", "v")])
    fams = maximal_nongraded_families(single_loop)
    assert [(sorted(f.H), f.cycle.edges) for f in fams] == [([], ("l",))]


def test_existence_report_unique_maximal_fixture(unique_max):
    rep = existence_report(unique_max)
    assert rep.exists_maximal and rep.every_ideal_below_maximal
    assert rep.every_maximal_graded
    assert rep.unique_maximal == graded(unique_max, {"v", "w"})


def test_existence_report_mixed_maximals_fixture(mixed_max):
    rep = existence_report(mixed_max)
    assert rep.exists_maximal
    assert not rep.every_maximal_graded
    assert rep.unique_maximal is None
    assert rep.to_json_dict()["nongraded_maximal_families"] == [{"H": ["u"], "cycle": ["c"]}]


def test_existence_report_chain():
    rep = existence_report(chain_graph(5))
    assert rep.exists_maximal
    assert rep.unique_maximal == graded(chain_graph(5), {"v1", "v2", "v3", "v4"})


def test_report_serialization_shape(unique_max):
    doc = existence_report(unique_max).to_json_dict()
    assert set(doc) == {
        "graded_maximals",
        "nongraded_maximal_families",
        "exists_maximal",
        "every_ideal_below_maximal",
        "every_maximal_graded",
        "unique_maximal",
    }
    assert doc["graded_maximals"] == [{"H": ["v", "w"], "S": []}]
    assert doc["unique_maximal"] == {"kind": "graded", "H": ["v", "w"], "S": []}


def _check_theorem_invariants(g):
    rep = existence_report(g)
    full = frozenset(g.vertices)
    for p in rep.graded_maximals:
        assert classify_prime(g, GradedIdeal(p))
        assert is_downward_directed(g, full - p.H)
    proper = [q for q in all_admissible_pairs(g) if q.H != full]
    for fam in rep.nongraded_maximal_families:
        assert classify_prime(g, fam)
        base = gr_of(fam)
        assert all(not (leq_prime(base, q) and base != q) for q in proper)
    if rep.unique_maximal is not None:
        assert isinstance(rep.unique_maximal, GradedIdeal)
        assert len(rep.graded_maximals) == 1 and not rep.nongraded_maximal_families
    assert rep.every_maximal_graded == (rep.nongraded_maximal_families == ())
    lat = enumerate_HE(g)
    maximal = maximal_proper_elements(lat)
    assert rep.exists_maximal == bool(maximal)
    assert rep.every_ideal_below_maximal == all(
        any(h <= m for m in maximal) for h in lat.sets if h != full
    )
    assert rep.every_ideal_below_maximal
    assert rep.exists_maximal == bool(
        rep.graded_maximals or rep.nongraded_maximal_families
    )


def test_theorem_invariants_on_random_graphs():
    for g in random_corpus(80, seed=41):
        _check_theorem_invariants(g)


@given(graphs(max_vertices=4, max_edges=8))
def test_every_prime_descriptor_classifies_prime(g):
    for d in enumerate_primes(g):
        assert classify_prime(g, d)


def test_maximal_tail_complements():
    # complements of maximal graded pairs are downward directed; the
    # reversed chain gives primes that are not maximal, so the converse
    # fails
    g = chain_graph(5, reverse=True)
    lat = enumerate_HE(g)
    assert maximal_proper_elements(lat) == [{"v2", "v3", "v4", "v5"}]
    full = frozenset(g.vertices)
    for k in (3, 4, 5):
        h = frozenset(f"v{i}" for i in range(k, 6))
        assert classify_prime(g, graded(g, h))
        assert pair(g, h) not in maximal_graded_ideals(g)
        assert is_downward_directed(g, full - h)


def _descriptor_keys(g):
    keys = set()
    for d in enumerate_primes(g):
        if isinstance(d, GradedIdeal):
            keys.add(("graded", tuple(sorted(d.pair.H)), tuple(sorted(d.pair.S))))
        else:
            keys.add(("family", tuple(sorted(d.H)), d.cycle.edges))
    return keys


def test_enumerate_primes_against_raw_definition_oracle():
    from oracles import primes_brute

    for g in random_corpus(150, seed=77):
        assert _descriptor_keys(g) == primes_brute(g)


def test_enumerate_primes_against_the_oracle_on_the_acceptance_corpus():
    from oracles import primes_brute

    for g in random_corpus(500):
        assert _descriptor_keys(g) == primes_brute(g)


@given(graphs())
def test_every_prime_complement_is_some_m_of(g):
    full = frozenset(g.vertices)
    tails = {g.m_of(d) for d in g.vertices}
    for d in enumerate_primes(g):
        assert full - gr_of(d).H in tails


@given(graphs())
def test_enumerate_primes_is_in_descriptor_order(g):
    keys = [descriptor_sort_key(d) for d in enumerate_primes(g)]
    assert keys == sorted(keys)


def test_one_cap_bounds_the_cycles_of_enumerate_primes():
    """The cap bounds H_E alone: the 85 simple cycles against a lattice of
    4 sets are never enumerated, so a cap of 4 answers and 3 refuses."""
    g = clique_with_loop(5)
    with pytest.raises(ResourceCapError, match="lattice exceeds cap 3"):
        enumerate_primes(g, cap=3)
    primes = [d.to_json_dict() for d in enumerate_primes(g, cap=4)]
    clique = sorted(frozenset(g.vertices) - {"z"})
    assert [(d["H"], d.get("cycle")) for d in primes] == [(clique, None), (clique, ["c"]), (["z"], None)]


def test_maximal_nongraded_families_enumerate_the_graph_once(monkeypatch):
    """The maximals are read off the primes, over the graph itself: no
    quotient graph, and no cycle enumeration at all, as the cycles
    without K are read off the strongly connected components."""
    from lpaideals import ideals, lattice

    assert not {"quotient_graph", "simple_cycles", "condition_L", "make_cycle"} & set(vars(ideals))
    calls = []

    def counted(original):
        def wrapper(g, *args):
            calls.append((original.__name__, g))
            return original(g, *args)

        return wrapper

    monkeypatch.setattr(lattice, "quotient_graph", counted(lattice.quotient_graph))
    g = clique_with_loop(4)
    families = maximal_nongraded_families(g)
    assert [(sorted(f.H), f.cycle.edges) for f in families] == [
        (sorted(frozenset(g.vertices) - {"z"}), ("c",))
    ]
    existence_report(g)
    assert calls == []


def _maximal_keys(g):
    graded = [(tuple(sorted(p.H)), tuple(sorted(p.S))) for p in maximal_graded_ideals(g)]
    families = [(tuple(sorted(f.H)), f.cycle.edges) for f in maximal_nongraded_families(g)]
    return graded, families


@given(graphs())
def test_maximals_follow_the_coatom_rule(g):
    from oracles import maximals_by_coatoms_brute

    assert _maximal_keys(g) == maximals_by_coatoms_brute(g)


def test_maximals_follow_the_coatom_rule_on_the_acceptance_corpus():
    from oracles import maximals_by_coatoms_brute

    for g in random_corpus(500):
        assert _maximal_keys(g) == maximals_by_coatoms_brute(g)


def _report_keys(rep):
    graded = {("graded", tuple(sorted(p.H)), tuple(sorted(p.S))) for p in rep.graded_maximals}
    families = {("family", tuple(sorted(f.H)), f.cycle.edges) for f in rep.nongraded_maximal_families}
    return graded | families


def _has_breaking_vertex(g):
    return any(breaking_vertices_brute(g, h) for h in hereditary_saturated_sets_brute(g))


def test_maximals_oracle_on_hand_derived_graphs():
    assert maximals_brute(breaker_below_coatom()) == {
        ("graded", ("b",), ("a",)),
        ("graded", ("b", "c"), ()),
    }
    assert maximals_brute(breaker_below_coatom_with_loop()) == {
        ("family", ("b",), ("d",)),
        ("graded", ("b", "c"), ()),
    }
    assert maximals_brute(cross_bundle_cycle()) == {("graded", (), ())}
    assert maximals_brute(unique_maximal_graph()) == {("graded", ("v", "w"), ())}
    assert maximals_brute(mixed_maximals_graph()) == {
        ("family", ("u",), ("c",)),
        ("graded", ("w",), ()),
    }
    # I({w}, {v}) and I({w}, {}) lie in the family's graded part
    assert maximals_brute(omega_graph()) == {("family", ("w",), ("f",))}
    assert maximals_brute(breaking_emitters(2)) == {
        ("family", ("b1", "w"), ("f2",)),
        ("family", ("b2", "w"), ("f1",)),
    }


def test_maximals_against_the_oracle_on_the_acceptance_corpus_without_breaking_vertices():
    checked = 0
    for g in random_corpus(500):
        if not _has_breaking_vertex(g):
            assert _report_keys(existence_report(g)) == maximals_brute(g)
            checked += 1
    assert checked == 466


@given(graphs())
def test_maximals_against_the_oracle_without_breaking_vertices(g):
    assume(not _has_breaking_vertex(g))
    assert _report_keys(existence_report(g)) == maximals_brute(g)


F1 = pytest.mark.xfail(
    strict=True,
    reason=(
        "F1: the report keeps only the primes over the coatoms of H_E; its fix "
        "waits for perfbench/verify.py::oracle_expected, which derives the "
        "maximals from coatom quotients"
    ),
)


@F1
def test_f1_has_two_graded_maximal_ideals():
    rep = existence_report(breaker_below_coatom())
    assert _report_keys(rep) == {("graded", ("b",), ("a",)), ("graded", ("b", "c"), ())}
    assert rep.unique_maximal is None


@F1
def test_f3_has_a_maximal_family_over_a_non_coatom():
    rep = existence_report(breaker_below_coatom_with_loop())
    assert _report_keys(rep) == {("family", ("b",), ("d",)), ("graded", ("b", "c"), ())}
    assert not rep.every_maximal_graded and rep.unique_maximal is None


def test_primes_with_two_breaking_vertices():
    # x and y each bundle into h and escape through the 2-cycle lx, ly;
    # both break H = {h}, so the dropped-vertex clause fires twice and
    # the exitless quotient 2-cycle spawns a non-graded family.
    g = graph(
        ["h", "x", "y"],
        [("a", "x", "h"), ("b", "y", "h"), ("lx", "x", "y"), ("ly", "y", "x")],
        [("x", "h"), ("y", "h")],
    )
    assert _descriptor_keys(g) == {
        ("graded", (), ()),
        ("graded", ("h",), ("x",)),
        ("graded", ("h",), ("y",)),
        ("graded", ("h",), ("x", "y")),
        ("family", ("h",), ("lx", "ly")),
    }
    rep = existence_report(g)
    assert rep.graded_maximals == ()
    assert [(sorted(f.H), f.cycle.edges) for f in rep.nongraded_maximal_families] == [
        (["h"], ("lx", "ly"))
    ]
    assert not rep.every_maximal_graded and rep.unique_maximal is None


def test_nongraded_family_enumerates_no_cycles():
    """The family checks its cycle on its component alone, and the primes
    read their cycles off the components: neither enumerates cycles, as
    the library has no cycle enumerator (``test_cycles.py`` asserts it)."""
    g = clique_with_loop(5)
    clique = frozenset(g.vertices) - {"z"}
    family = NonGradedFamily(g, clique, make_cycle(g, ["c"]))
    with pytest.raises(GraphError):
        NonGradedFamily(g, frozenset(), make_cycle(g, ["e12", "e21"]))
    assert family in enumerate_primes(g, cap=100)


def _breaking_vertex_calls(monkeypatch, tmp_path, capsys, command) -> int:
    """The ``breaking_vertices`` calls of ``command --json`` on A_12."""
    from lpaideals import ideals, lattice, serialize_graph
    from lpaideals.cli import main
    from test_golden import loop_antichain

    calls = []
    original = lattice.breaking_vertices

    def counted(g, subset):
        calls.append(subset)
        return original(g, subset)

    for module in (lattice, ideals):
        monkeypatch.setattr(module, "breaking_vertices", counted)
    path = tmp_path / "a12.json"
    path.write_text(serialize_graph(loop_antichain(12)))
    assert main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    return len(calls)


def test_analyze_computes_B_H_once_per_graph(monkeypatch, tmp_path, capsys):
    """On A_12 ``analyze`` asks for the primes three times and computes
    them once, as the first answer is kept on the graph's index; that
    computation finds B_H once for each of the 12 H: its pairs take S
    within B_H without checking it again, and the coatom filter takes
    (H, B_H) from the primes rather than computing B_H again: 12 calls."""
    assert _breaking_vertex_calls(monkeypatch, tmp_path, capsys, "analyze") == 12


@pytest.mark.parametrize("command", ["primes", "maximals"])
def test_each_prime_enumeration_computes_B_H_once_per_H(monkeypatch, tmp_path, capsys, command):
    assert _breaking_vertex_calls(monkeypatch, tmp_path, capsys, command) == 12


@pytest.mark.parametrize("command, calls", [("analyze", 2), ("maximals", 1), ("primes", 1)])
def test_the_cycles_without_K_are_read_once_per_fact(monkeypatch, tmp_path, capsys, command, calls):
    """On K_5 plus a loop, ``condition_K`` reads the cycles without K once
    and the one prime computation once; the coatom filters and the later
    prime calls read the kept primes."""
    from lpaideals import cycles, ideals, serialize_graph
    from lpaideals.cli import main

    found = []
    original = cycles.cycles_without_K

    def counted(g):
        found.append(g)
        return original(g)

    for module in (cycles, ideals):
        monkeypatch.setattr(module, "cycles_without_K", counted)
    path = tmp_path / "k5.json"
    path.write_text(serialize_graph(clique_with_loop(5)))
    for _ in range(3):
        found.clear()
        assert main([command, str(path), "--json"]) == 0
        assert len(found) == calls
    capsys.readouterr()


def test_kept_primes_refuse_each_cap_as_a_fresh_graph():
    """The prime list is kept on the graph's index, but each later call
    checks its own caps first, so it refuses with the message that a
    fresh graph gives; a refused call keeps nothing."""
    from test_golden import loop_antichain

    calls = [
        lambda g: enumerate_primes(g, cap=1),
        lambda g: existence_report(g, cap=1),
        lambda g: maximal_graded_ideals(g, cap=4095),
        lambda g: enumerate_primes(g, max_vertices=1),
        lambda g: existence_report(g, max_vertices=1),
        lambda g: maximal_nongraded_families(g, max_vertices=11),
    ]
    fresh = []
    for call in calls:
        g = loop_antichain(12)
        fresh.append(_refusal(lambda: call(g)))
        assert g._masks.primes is None
    assert fresh[:3] == ["lattice exceeds cap 1", "lattice exceeds cap 1", "lattice exceeds cap 4095"]
    assert fresh[3] == "exact enumeration limited to 1 vertices, graph has 12"
    g = loop_antichain(12)
    assert len(enumerate_primes(g)) == 12 and len(existence_report(g).graded_maximals) == 12
    assert g._masks.primes is not None
    assert [_refusal(lambda: call(g)) for call in calls] == fresh
    assert len(enumerate_primes(g, cap=4096)) == 12


def test_a_returned_prime_list_is_the_callers_own(mixed_max):
    """Changing a list that a call returned leaves the kept answer as it was."""
    primes = enumerate_primes(mixed_max)
    graded, families = maximal_graded_ideals(mixed_max), maximal_nongraded_families(mixed_max)
    expected = (list(primes), list(graded), list(families))
    assert graded and families
    for returned in (primes, graded, families):
        returned.reverse()
        returned.append(returned[0])
    assert enumerate_primes(mixed_max) == expected[0]
    assert maximal_graded_ideals(mixed_max) == expected[1]
    assert maximal_nongraded_families(mixed_max) == expected[2]
    report = existence_report(mixed_max)
    assert (list(report.graded_maximals), list(report.nongraded_maximal_families)) == expected[1:]


def test_an_equal_graph_computes_its_own_primes(monkeypatch):
    """The kept primes belong to one graph object: an equal but separate
    graph computes its own, and each graph then answers from its own."""
    from lpaideals import ideals

    computed = []
    original = ideals.cycles_without_K
    monkeypatch.setattr(ideals, "cycles_without_K", lambda g: computed.append(g) or original(g))
    g, twin = clique_with_loop(4), clique_with_loop(4)
    assert g == twin and g is not twin
    answer = enumerate_primes(g)
    report = existence_report(g)
    assert computed == [g] and twin._masks.primes is None
    assert enumerate_primes(twin) == answer and existence_report(twin) == report
    assert len(computed) == 2 and computed[1] is twin
    assert enumerate_primes(g) == enumerate_primes(twin) == answer and len(computed) == 2


def test_a_graph_that_has_answered_is_freed_by_reference_counting():
    """Nothing that the graph keeps refers back to it, so with the cyclic
    collector off a graph is freed as soon as its last reference goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = clique_with_loop(4)
        assert len(enumerate_HE(g).sorted_ids()) == 4
        assert len(enumerate_primes(g)) == 3
        assert len(maximal_proper_elements(enumerate_HE(g))) == 2
        assert not existence_report(g).every_maximal_graded
        assert g._masks.closed_sets is not None and g._masks.primes is not None
        alive = weakref.ref(g)
        del g
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


VERTEX_SET_ENTRY_POINTS = {
    "is_hereditary": is_hereditary,
    "is_saturated": is_saturated,
    "hs_closure": hs_closure,
    "breaking_vertices": breaking_vertices,
    "is_downward_directed": is_downward_directed,
    "is_maximal_tail": is_maximal_tail,
    "AdmissiblePair": lambda g, h: AdmissiblePair(g, h),
    "NonGradedFamily": lambda g, h: NonGradedFamily(g, h, make_cycle(g, ["c"])),
}


@pytest.mark.parametrize("name", VERTEX_SET_ENTRY_POINTS)
def test_vertex_sets_with_an_undeclared_vertex_are_refused(name):
    g = unique_maximal_graph()
    for subset in ({"x"}, {"u", "v", "w", "x"}, {"w", "x"}):
        with pytest.raises(UnknownVertexError, match="'x'"):
            VERTEX_SET_ENTRY_POINTS[name](g, frozenset(subset))


def _assert_prime_families_exit_into_H(g) -> int:
    """Every exit of a prime family's cycle lands in the family's H, as
    ``_primes_at_coatoms`` assumes without checking; returns the families."""
    families = [d for d in enumerate_primes(g) if isinstance(d, NonGradedFamily)]
    for f in families:
        on_cycle = set(f.cycle.vertices)
        exits = [e.dst for e in g.edges if e.src in on_cycle and e.id not in f.cycle.edges]
        exits += [b.dst for b in g.omega_bundles if b.src in on_cycle]
        assert set(exits) <= f.H, (f.H, f.cycle)
    return len(families)


@given(graphs())
def test_prime_families_exit_into_their_H(g):
    _assert_prime_families_exit_into_H(g)


def test_prime_families_exit_into_their_H_on_the_acceptance_corpus():
    assert sum(_assert_prime_families_exit_into_H(g) for g in random_corpus(500)) > 0


def test_ideals_and_cycles_read_the_index_not_the_set_views(monkeypatch, tmp_path, capsys):
    """The commands, ``classify_prime`` and ``is_maximal_tail`` answer
    from the index's masks: none of them reads ``m_of``, ``descendants``
    or ``is_downward_directed``."""
    from lpaideals import cycles, serialize_graph
    from lpaideals.cli import main
    from lpaideals.graph import DirectedGraph

    fixtures = [
        unique_maximal_graph(),
        mixed_maximals_graph(),
        omega_graph(),
        chain_graph(3),
        clique_with_loop(4),
        breaking_emitters(3),
        cross_bundle_cycle(),
        breaker_below_coatom(),
        breaker_below_coatom_with_loop(),
    ]

    def refuse(*args):
        raise AssertionError("a set view was read")

    for name in ("m_of", "descendants"):
        monkeypatch.setattr(DirectedGraph, name, refuse)
    monkeypatch.setattr(cycles, "is_downward_directed", refuse)
    path = tmp_path / "graph.json"
    commands = [["analyze"], ["primes"], ["maximals"], ["check", "--condition", "L"], ["check", "--condition", "K"]]
    for g in fixtures + random_corpus(50):
        path.write_text(serialize_graph(g))
        for command, *flags in commands:
            assert main([command, str(path), *flags]) == 0
        capsys.readouterr()
        for d in enumerate_primes(g):
            assert classify_prime(g, d)
            h = d.pair.H if isinstance(d, GradedIdeal) else d.H
            assert is_maximal_tail(g, frozenset(g.vertices) - h)
