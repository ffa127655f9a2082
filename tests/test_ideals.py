import dataclasses
import gc
import weakref
from itertools import combinations

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
from oracles import (
    breaking_vertices_brute,
    hereditary_saturated_sets_brute,
    is_hereditary_brute,
    is_saturated_brute,
    maximals_brute,
)
from test_golden import GRAPHS
from test_lattice import _refusal, all_admissible_pairs
from lpaideals import (
    AdmissiblePair,
    GradedIdeal,
    GraphError,
    MaximalityReport,
    NonGradedFamily,
    UnknownVertexError,
    breaking_vertices,
    classify_prime,
    condition_L,
    cycles_without_K,
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
from lpaideals.graph import _Masks
from lpaideals.ideals import descriptor_sort_key
from lpaideals.lattice import _is_hereditary_saturated


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
    (family,) = maximal_nongraded_families(mixed_max)
    with pytest.raises(GraphError, match="descriptor was built for a different graph"):
        classify_prime(unique_maximal_graph(), family)


def test_a_non_descriptor_is_named(unique_max):
    """``classify_prime`` and ``gr_of`` take a graded ideal or a family,
    and name anything else, such as the bare admissible pair."""
    bare = pair(unique_max, set())
    with pytest.raises(GraphError) as exc:
        classify_prime(unique_max, bare)
    assert str(exc.value) == f"not an ideal descriptor: {bare!r}"
    with pytest.raises(GraphError) as exc:
        gr_of(bare)
    assert str(exc.value) == f"not an ideal descriptor: {bare!r}"


def test_full_vertex_set_is_not_a_prime(unique_max):
    assert not classify_prime(unique_max, graded(unique_max, {"u", "v", "w"}))


def test_nongraded_family_validation(unique_max):
    with pytest.raises(GraphError):
        # f1 lies on a second cycle, so it is not a cycle without K
        NonGradedFamily(unique_max, frozenset(), make_cycle(unique_max, ["f1"]))
    with pytest.raises(GraphError):
        # the witness cycle may not meet H
        NonGradedFamily(unique_max, frozenset({"v", "w"}), make_cycle(unique_max, ["c"]))
    with pytest.raises(GraphError, match="H is not hereditary saturated"):
        # u -> v, so {u} is not hereditary, though the cycle c misses it
        NonGradedFamily(unique_max, frozenset({"u"}), make_cycle(unique_max, ["c"]))


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


def test_the_reports_store_only_what_they_found(unique_max, mixed_max):
    """A maximality report stores its two lists and a family its H and
    cycle; the rest is read off them or holds by theorem, and no
    constructor takes it."""
    stored = ["graded_maximals", "nongraded_maximal_families"]
    assert [f.name for f in dataclasses.fields(MaximalityReport)] == stored
    assert [f.name for f in dataclasses.fields(NonGradedFamily)] == ["graph", "H", "cycle"]
    for g in (unique_max, mixed_max):
        rep = existence_report(g)
        assert MaximalityReport(rep.graded_maximals, rep.nongraded_maximal_families) == rep
        assert rep.exists_maximal is rep.every_ideal_below_maximal is True
        primes = [d for d in enumerate_primes(g) if isinstance(d, NonGradedFamily)]
        for family in list(rep.nongraded_maximal_families) + primes:
            assert family.poly == "irreducible f in K[x,x^-1]"
    with pytest.raises(TypeError):
        MaximalityReport((), (), exists_maximal=False)
    with pytest.raises(TypeError):
        NonGradedFamily(mixed_max, {"u"}, make_cycle(mixed_max, ["c"]), "f")


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


def _assert_reports_in_descriptor_order(g):
    """The prime list, both maximal views and both lists of the report
    are in strictly increasing ``descriptor_sort_key`` order."""
    report = existence_report(g)
    listings = [
        enumerate_primes(g),
        [GradedIdeal(p) for p in maximal_graded_ideals(g)],
        maximal_nongraded_families(g),
        [GradedIdeal(p) for p in report.graded_maximals],
        report.nongraded_maximal_families,
    ]
    for listing in listings:
        keys = [descriptor_sort_key(d) for d in listing]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@given(graphs())
def test_the_reports_are_in_descriptor_order(g):
    _assert_reports_in_descriptor_order(g)


def test_the_reports_are_in_descriptor_order_on_the_acceptance_corpus():
    for g in random_corpus(500):
        _assert_reports_in_descriptor_order(g)


def test_the_per_tail_table_is_in_order_of_H():
    """``_by_tail`` is sorted once, by H's sorted ids, which differ from
    tail to tail; in mask order the empty H of the whole-graph tail, the
    largest mask, would come last."""
    from lpaideals.ideals import _by_tail

    for g in [unique_maximal_graph(), breaking_emitters(2), breaker_below_coatom()] + random_corpus(500):
        hs = [sorted(hset) for hset, *_ in _by_tail(g).values()]
        assert all(a < b for a, b in zip(hs, hs[1:]))


def _assert_one_mask_decides_each_complement(g):
    """For each vertex d, the closed tails of the index (``_Masks.tails``)
    hold M(d) exactly when its closure and the raw definitions say E^0
    minus M(d) is hereditary saturated; returns the kinds of d seen."""
    masks = g._masks
    kinds = set()
    for d, tail in enumerate(masks.ancestors):
        hset = masks.to_set(masks.full & ~tail)
        closed = tail in masks.tails
        assert closed == _is_hereditary_saturated(g, hset)
        assert closed == (is_hereditary_brute(g, hset) and is_saturated_brute(g, hset))
        kinds.add((g.vertex_kind(masks.vertices[d]).value, closed))
    return kinds


@given(graphs())
def test_one_mask_decides_each_complement(g):
    _assert_one_mask_decides_each_complement(g)


def test_one_mask_decides_each_complement_on_the_acceptance_corpus():
    seen = set().union(*map(_assert_one_mask_decides_each_complement, random_corpus(500)))
    assert seen == {("sink", True), ("infinite_emitter", True), ("regular", True), ("regular", False)}


def test_the_primes_and_the_maximal_tails_close_no_set(monkeypatch):
    """The primes read their closed tails and each B_H off the index
    (``_Masks.tails``, ``_Masks.breaking``), and ``is_maximal_tail`` asks
    whether its set is a closed tail: neither closes a set."""
    closed = []
    close = _Masks.close
    monkeypatch.setattr(_Masks, "close", lambda self, mask: closed.append(mask) or close(self, mask))
    fixtures = [omega_graph(), breaking_emitters(3), clique_with_loop(4), mixed_maximals_graph()]
    for g in fixtures + random_corpus(100):
        assert enumerate_primes(g)
        for r in range(1, len(g.vertices) + 1):
            for subset in combinations(g.vertices, r):
                is_maximal_tail(g, subset)
    assert closed == []


def test_classify_prime_reads_the_B_H_its_pair_holds(monkeypatch):
    """Every pair holds the B_H its build read (``AdmissiblePair._b_h``),
    so classifying a graded prime neither closes H again nor scans the
    emitters: no ``_Masks.close`` and no ``_Masks.breaking`` call, for
    the pairs the library builds and for their checked copies."""
    fixtures = [make() for make in GRAPHS.values()] + [breaker_below_coatom(), breaker_below_coatom_with_loop()]
    primes = []
    for g in fixtures:
        for d in enumerate_primes(g):
            if isinstance(d, GradedIdeal):
                primes += [(g, d), (g, graded(g, d.pair.H, d.pair.S))]
    assert any(p.pair.S != p.pair._b_h for _, p in primes)  # a B_H - {u} clause is classified too
    calls = []

    def counted(name):
        original = getattr(_Masks, name)
        return lambda self, mask: calls.append(name) or original(self, mask)

    for name in ("close", "breaking"):
        monkeypatch.setattr(_Masks, name, counted(name))
    assert all(classify_prime(g, d) for g, d in primes)
    assert calls == []


def test_gr_of_a_family_reads_B_H_off_the_index(monkeypatch):
    """A family holds the B_H it was built from, so ``gr_of`` closes no
    set and scans no emitter."""
    g = mixed_maximals_graph()
    (family,) = maximal_nongraded_families(g)
    expected = pair(g, {"u"})
    calls = []

    def counted(name):
        original = getattr(_Masks, name)
        return lambda self, mask: calls.append(name) or original(self, mask)

    for name in ("close", "breaking"):
        monkeypatch.setattr(_Masks, name, counted(name))
    assert gr_of(family) == expected
    assert calls == []


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
    """The maximals are read off the per-tail table, over the graph
    itself: no quotient graph, and no cycle enumeration at all, as the
    cycles without K are read off the strongly connected components."""
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


def _a12_calls(monkeypatch, tmp_path, capsys, command, owner, name, counts=lambda *args: True) -> int:
    """The calls of ``owner.name`` that ``command --json`` makes on A_12,
    those whose positional arguments ``counts`` accepts."""
    from lpaideals import serialize_graph
    from lpaideals.cli import main
    from test_golden import loop_antichain

    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if counts(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    path = tmp_path / "a12.json"
    path.write_text(serialize_graph(loop_antichain(12)))
    assert main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    return len(calls)


def _breaking_vertex_calls(monkeypatch, tmp_path, capsys, command) -> int:
    """The ``_Masks.breaking`` calls of ``command --json`` on A_12: the
    one rule for B_H, which ``breaking_vertices`` reads too."""
    return _a12_calls(monkeypatch, tmp_path, capsys, command, _Masks, "breaking")


def test_analyze_computes_B_H_once_per_graph(monkeypatch, tmp_path, capsys):
    """On A_12 ``analyze`` reads the primes and both maximal views off one
    table per closed tail, built once and kept on the graph's index; that
    build finds B_H once for each of the 12 H, and its pairs take S within
    B_H without checking it again: 12 calls."""
    assert _breaking_vertex_calls(monkeypatch, tmp_path, capsys, "analyze") == 12


@pytest.mark.parametrize("command", ["primes", "maximals"])
def test_each_prime_enumeration_computes_B_H_once_per_H(monkeypatch, tmp_path, capsys, command):
    assert _breaking_vertex_calls(monkeypatch, tmp_path, capsys, command) == 12


@pytest.mark.parametrize("command, pairs", [("analyze", 12 + 12), ("maximals", 12), ("primes", 12)])
def test_each_command_builds_only_the_pairs_it_returns(monkeypatch, tmp_path, capsys, command, pairs):
    """On A_12 each of the 12 closed tails gives one graded prime, and each
    is least, so it gives one graded maximal ideal too: ``enumerate_primes``
    builds 12 pairs and the report 12, and no descriptor is built to be
    filtered out.  The pairs are built unchecked, by ``graph._trusted``."""
    from lpaideals import ideals

    def is_pair(cls):
        return cls is AdmissiblePair

    assert _a12_calls(monkeypatch, tmp_path, capsys, command, ideals, "_trusted", is_pair) == pairs


@pytest.mark.parametrize("command, calls", [("analyze", 2), ("maximals", 1), ("primes", 1)])
def test_the_cycles_without_K_are_read_once_per_fact(monkeypatch, tmp_path, capsys, command, calls):
    """On K_5 plus a loop, ``condition_K`` reads the cycles without K once
    and the one build of the per-tail table once; the maximal views and
    the later prime calls read the kept table."""
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
    """The per-tail table is kept on the graph's index, but each later call
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
        assert g._masks.by_tail is None
    assert fresh[:3] == ["lattice exceeds cap 1", "lattice exceeds cap 1", "lattice exceeds cap 4095"]
    assert fresh[3] == "exact enumeration limited to 1 vertices, graph has 12"
    g = loop_antichain(12)
    assert len(enumerate_primes(g)) == 12 and len(existence_report(g).graded_maximals) == 12
    assert g._masks.by_tail is not None
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
    """The kept table belongs to one graph object: an equal but separate
    graph computes its own, and each graph then answers from its own."""
    from lpaideals import ideals

    computed = []
    original = ideals.cycles_without_K
    monkeypatch.setattr(ideals, "cycles_without_K", lambda g: computed.append(g) or original(g))
    g, twin = clique_with_loop(4), clique_with_loop(4)
    assert g == twin and g is not twin
    answer = enumerate_primes(g)
    report = existence_report(g)
    assert computed == [g] and twin._masks.by_tail is None
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
        assert len(enumerate_HE(g).sets) == 4
        assert len(enumerate_primes(g)) == 3
        assert len(maximal_proper_elements(enumerate_HE(g))) == 2
        assert not existence_report(g).every_maximal_graded
        assert g._masks.closed_sets is not None and g._masks.by_tail is not None
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


@pytest.mark.parametrize("name", VERTEX_SET_ENTRY_POINTS)
def test_a_vertex_set_given_as_one_string_is_refused(name):
    """One str is not read as the set of its characters: with vertices v
    and w, "vw" names no vertex set, and "uvw" names no unknown vertex."""
    g = unique_maximal_graph()
    for subset in ("vw", "uvw", "x", ""):
        with pytest.raises(GraphError, match=f"not the string {subset!r}"):
            VERTEX_SET_ENTRY_POINTS[name](g, subset)


def test_a_string_is_in_no_lattice_and_no_pair():
    g = unique_maximal_graph()
    lat = enumerate_HE(g)
    assert {"v", "w"} in lat and "vw" not in lat
    with pytest.raises(GraphError, match="not the string 'u'"):
        AdmissiblePair(g, {"v", "w"}, "u")


def _assert_prime_families_exit_into_H(g) -> int:
    """Every exit of a prime family's cycle lands in the family's H, as
    ``ideals._maximal_rows`` assumes without checking; returns the families."""
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


def _assert_one_cycle_without_K_per_tail(g) -> int:
    """Each cycle c without K is based in its own closed tail M(c.base),
    so the table keyed by tail (``ideals._by_tail``) drops no family;
    returns the cycles."""
    masks = g._masks
    without_k = cycles_without_K(g)
    bases = [masks.ancestors[masks.index[c.base]] for c in without_k]
    assert len(set(bases)) == len(bases) and set(bases) <= set(masks.tails)
    families = [d for d in enumerate_primes(g) if isinstance(d, NonGradedFamily)]
    assert sorted(f.cycle.edges for f in families) == [c.edges for c in without_k]
    return len(without_k)


@given(graphs())
def test_no_closed_tail_is_the_base_tail_of_two_cycles_without_K(g):
    _assert_one_cycle_without_K_per_tail(g)


def test_no_closed_tail_is_the_base_tail_of_two_cycles_without_K_on_the_acceptance_corpus():
    counts = [_assert_one_cycle_without_K_per_tail(g) for g in random_corpus(500, seed=20260809)]
    assert max(counts) >= 2


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
