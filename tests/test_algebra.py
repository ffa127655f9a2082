import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    breaking_emitters,
    graph,
    graphs,
    mixed_maximals_graph,
    omega_graph,
    random_corpus,
    unique_maximal_graph,
)
from oracles import mul_brute
from lpaideals import (
    AlgebraElement,
    DirectedGraph,
    GraphError,
    edge_element,
    ghost_element,
    is_idempotent,
    make_path,
    parse_element,
    render_element,
    v_H_element,
    vertex_element,
)
from lpaideals.algebra import Monomial, PathWord, _coefficient_text, monomial_element, zero


def test_path_validation(unique_max):
    p = make_path(unique_max, "u", ["e1", "e2"])
    assert (p.source, p.target, len(p)) == ("u", "w", 2)
    with pytest.raises(GraphError):
        make_path(unique_max, "u", ["e2"])
    with pytest.raises(GraphError):
        make_path(unique_max, "u", ["e1", "e1"])


EDGE_SEQUENCE_ENTRY_POINTS = {
    "make_path": lambda g, ids: make_path(g, "w", ids),
    "monomial_element alpha": lambda g, ids: monomial_element(g, "w", ids, "w", ["c"]),
    "monomial_element beta": lambda g, ids: monomial_element(g, "w", ["c"], "w", ids),
}


@pytest.mark.parametrize("name", EDGE_SEQUENCE_ENTRY_POINTS)
def test_an_edge_sequence_given_as_one_string_is_refused(name, unique_max):
    """One str is not read as its characters: "cc" would be the loop c
    twice at w, "" the path of length zero, and "e1" the unknown edge 'e'."""
    EDGE_SEQUENCE_ENTRY_POINTS[name](unique_max, ["c", "c"])  # as a list, the ids are read
    for ids in ("cc", "c", "e1", ""):
        with pytest.raises(GraphError, match=f"not the string {ids!r}"):
            EDGE_SEQUENCE_ENTRY_POINTS[name](unique_max, ids)


def test_monomial_requires_matching_ranges(unique_max):
    alpha = make_path(unique_max, "u", ["e1"])
    beta = make_path(unique_max, "u", [])
    with pytest.raises(GraphError):
        Monomial(Fraction(1), alpha, beta)
    with pytest.raises(GraphError):
        Monomial(Fraction(0), alpha, make_path(unique_max, "v", []))


def test_ck1_products(unique_max):
    e = edge_element(unique_max, "e1")
    e_star = ghost_element(unique_max, "e1")
    f = edge_element(unique_max, "e2")
    assert e_star * e == vertex_element(unique_max, "v")
    assert (e_star * f).is_zero()
    assert e * f == monomial_element(unique_max, "u", ["e1", "e2"], "w", [])


def test_vertex_orthogonality(unique_max):
    u = vertex_element(unique_max, "u")
    v = vertex_element(unique_max, "v")
    assert u * u == u
    assert (u * v).is_zero()


def test_degrees(unique_max):
    assert vertex_element(unique_max, "u").homogeneous_degree() == 0
    assert edge_element(unique_max, "e1").homogeneous_degree() == 1
    m = monomial_element(unique_max, "u", ["e1", "e2"], "u", ["e1", "e2", "c"])
    assert m.terms[0].degree == -1
    mixed = vertex_element(unique_max, "u") + edge_element(unique_max, "e1")
    assert mixed.homogeneous_degree() is None


def test_linear_combination_canonical_form(unique_max):
    u = vertex_element(unique_max, "u")
    x = u.scale(Fraction(1, 2)) + u.scale(Fraction(1, 2))
    assert x == u
    assert (u - u).is_zero()
    assert render_element(zero(unique_max)) == "0"


def _random_element(g, rng, monomial_pool):
    terms = []
    for _ in range(rng.randint(1, 3)):
        alpha, beta = rng.choice(monomial_pool)
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if coeff == 0:
            coeff = Fraction(1)
        terms.append(Monomial(coeff, alpha, beta))
    return AlgebraElement(g, tuple(terms))


def _monomial_pool(g, max_len=3):
    paths = [make_path(g, v) for v in g.vertices]
    frontier = list(paths)
    for _ in range(max_len):
        new = []
        for p in frontier:
            for e in g.out_edges(p.target):
                new.append(make_path(g, p.source, p.edges + (e.id,)))
        paths += new
        frontier = new
    by_target = {}
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
    return [
        (alpha, beta)
        for target, group in by_target.items()
        for alpha in group
        for beta in group
    ]


def test_mul_is_associative_and_bilinear():
    for g in (unique_maximal_graph(), omega_graph()):
        rng = random.Random(99)
        pool = _monomial_pool(g)
        for _ in range(60):
            x = _random_element(g, rng, pool)
            y = _random_element(g, rng, pool)
            z = _random_element(g, rng, pool)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            k = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            assert x.scale(k) * y == (x * y).scale(k)


def test_homogeneous_degrees_add():
    g = unique_maximal_graph()
    rng = random.Random(7)
    pool = _monomial_pool(g)
    checked = 0
    for _ in range(300):
        alpha1, beta1 = rng.choice(pool)
        alpha2, beta2 = rng.choice(pool)
        x = monomial_element(g, alpha1.source, alpha1.edges, beta1.source, beta1.edges)
        y = monomial_element(g, alpha2.source, alpha2.edges, beta2.source, beta2.edges)
        product = x * y
        if not product.is_zero():
            expected = x.homogeneous_degree() + y.homogeneous_degree()
            assert product.homogeneous_degree() == expected
            checked += 1
    assert checked > 50


def test_local_units():
    for g in (unique_maximal_graph(), omega_graph()):
        rng = random.Random(3)
        pool = _monomial_pool(g)
        for _ in range(40):
            x = _random_element(g, rng, pool)
            sources = {m.alpha.source for m in x.terms} | {m.beta.source for m in x.terms}
            f = zero(g)
            for v in sorted(sources):
                f = f + vertex_element(g, v)
            assert f * x * f == x


def test_v_H_element(omega):
    vh = v_H_element(omega, {"w"}, "v")
    ff = monomial_element(omega, "v", ["f"], "v", ["f"])
    assert vh == vertex_element(omega, "v") - ff
    with pytest.raises(GraphError):
        v_H_element(omega, set(), "v")


def test_v_H_with_two_named_escapes():
    g = graph(
        ["h", "x", "y", "z"],
        [("a", "x", "y"), ("b", "x", "z"), ("ly", "y", "y"), ("lz", "z", "z")],
        [("x", "h")],
    )
    vh = v_H_element(g, {"h"}, "x")
    expected = (
        vertex_element(g, "x")
        - monomial_element(g, "x", ["a"], "x", ["a"])
        - monomial_element(g, "x", ["b"], "x", ["b"])
    )
    assert vh == expected
    assert vh.is_idempotent()
    for eid in ("a", "b"):
        ee = monomial_element(g, "x", [eid], "x", [eid])
        assert (vh * ee).is_zero()


def test_idempotents(unique_max, omega):
    assert is_idempotent(unique_max, vertex_element(unique_max, "u"))
    assert v_H_element(omega, {"w"}, "v").is_idempotent()
    assert not edge_element(unique_max, "e1").is_idempotent()
    assert not is_idempotent(unique_max, edge_element(unique_max, "f1"))
    with pytest.raises(GraphError, match="element lives over a different graph"):
        is_idempotent(unique_max, vertex_element(omega, "v"))


def test_parse_and_render(unique_max):
    assert parse_element(unique_max, "u") == vertex_element(unique_max, "u")
    assert parse_element(unique_max, "e1 e2") == monomial_element(unique_max, "u", ["e1", "e2"], "w", [])
    with_pipe = parse_element(unique_max, "e1 e2 | c*")
    assert with_pipe == monomial_element(unique_max, "u", ["e1", "e2"], "w", ["c"])
    assert parse_element(unique_max, "e1 e2 c*") == with_pipe
    assert parse_element(unique_max, "c*") == ghost_element(unique_max, "c")
    combo = parse_element(unique_max, "2/3 e1 - u + f1 | g1*")
    assert combo == (
        monomial_element(unique_max, "u", ["e1"], "v", [], Fraction(2, 3))
        - vertex_element(unique_max, "u")
        + monomial_element(unique_max, "u", ["f1"], "u", ["g1"])
    )
    for x in (combo, with_pipe, v_H_element(omega_graph(), {"w"}, "v")):
        assert parse_element(x.graph, render_element(x)) == x


def numeric_ids_graph():
    """Ids that read as coefficients: the vertices 0 and 1, the loop
    c: 0 -> 0, d: 1 -> 0, and the edges 3: 1 -> 1, 2/3: 1 -> 0 and
    -1: 0 -> 0."""
    return graph(
        ["0", "1"],
        [("c", "0", "0"), ("d", "1", "0"), ("3", "1", "1"), ("2/3", "1", "0"), ("-1", "0", "0")],
    )


@given(
    st.sampled_from([unique_maximal_graph(), omega_graph(), mixed_maximals_graph(), numeric_ids_graph()]),
    st.randoms(),
)
def test_render_then_parse_is_the_identity(g, rng):
    x = _random_element(g, rng, _monomial_pool(g, max_len=2))
    for y in (x, x - x, zero(g)):
        assert parse_element(g, render_element(y)) == y


def test_an_id_that_reads_as_a_coefficient_gets_an_explicit_one():
    """A term whose first token would read as a coefficient is written
    with its coefficient, 1 included, so that the id reads as an id."""
    g = numeric_ids_graph()
    at_0 = parse_element(g, "c*") * parse_element(g, "c")
    assert at_0 == vertex_element(g, "0") and render_element(at_0) == "1 0"
    for text, rendered in (
        ("0", "0"),  # the zero element
        ("1 0", "1 0"),
        ("-1 0", "-1 0"),
        ("1 1 - 1 0", "-1 0 + 1 1"),
        ("1 0 - 1 1", "1 0 - 1 1"),
        ("1 3", "1 3"),
        ("1 2/3 + 1 -1", "1 -1 + 1 2/3"),
        ("2 -1 - 1 3 | 3*", "2 -1 - 1 3 | 3*"),
        ("c* - 1 -1 | c*", "c* - 1 -1 | c*"),
        ("1 d - 1 0", "-1 0 + d"),
    ):
        x = parse_element(g, text)
        assert render_element(x) == rendered, text
        assert parse_element(g, rendered) == x, text


def test_ids_that_the_text_form_cannot_carry():
    """An id that names both a vertex and an edge renders bare and reads
    back as ambiguous; an id '+' or '-' reads back as a sign."""
    both = graph(["x", "y"], [("x", "y", "y")])
    for x in (vertex_element(both, "x"), edge_element(both, "x")):
        assert render_element(x) == "x"
        with pytest.raises(GraphError) as caught:
            parse_element(both, render_element(x))
        assert str(caught.value) == "'x' names both a vertex and an edge; ambiguous"
    signs = graph(["+", "-"])
    for v in signs.vertices:
        assert render_element(vertex_element(signs, v)) == v
        with pytest.raises(GraphError) as caught:
            parse_element(signs, v)
        assert str(caught.value) == "empty term in element expression"


def test_parse_rejects_garbage(unique_max):
    """Each bad expression names its first fault, in the order the term
    is read: signs, coefficient, tokens, paths, then the coefficient's
    value."""
    for text, message in (
        ("", "empty element expression"),
        ("unknown", "unknown edge 'unknown'"),
        ("e1 |", "'|' must be followed by a ghost path"),
        ("| |", "at most one '|' per term"),
        ("e2 e1", "edge 'e1' does not start at 'w'"),
        ("u | c*", "real part ends at 'u' but ghost part ends at 'w'"),
        ("e1 u", "unknown edge 'u'"),
        ("3/0 u", "zero denominator in coefficient '3/0'"),
        ("1/0 u", "zero denominator in coefficient '1/0'"),
        ("3/0 unknown", "zero denominator in coefficient '3/0'"),
        ("2", "a term needs a path part after its coefficient"),
        ("0 u", "monomials carry nonzero coefficients"),
        ("-0 u", "monomials carry nonzero coefficients"),
        ("0 unknown", "unknown edge 'unknown'"),
        ("c* e1", "real-path tokens cannot follow ghost tokens"),
        ("- -", "empty term in element expression"),
        ("u - - v", "empty term in element expression"),
        ("u +", "empty term in element expression"),
    ):
        with pytest.raises(GraphError) as caught:
            parse_element(unique_max, text)
        assert str(caught.value) == message, text
    assert parse_element(unique_max, "- - u") == vertex_element(unique_max, "u")
    assert parse_element(unique_max, "- - 2 c - c") == edge_element(unique_max, "c")
    cancelled = parse_element(unique_max, "2 u - 2 u")
    assert cancelled.is_zero() and render_element(cancelled) == "0"


def _terms_by_key(x):
    return {(m.alpha.source, m.alpha.edges, m.beta.source, m.beta.edges): m.coeff for m in x.terms}


def assert_product_matches_oracle(x, y):
    """x * y has the all-pairs scan's terms, and it is canonical and valid:
    the validating constructor rebuilds it unchanged."""
    product = x * y
    assert _terms_by_key(product) == mul_brute(x, y)
    assert AlgebraElement(x.graph, product.terms).terms == product.terms


def _prefix_partners(g, x, rng):
    """An element whose real paths meet the ghost paths of x in every way
    the prefix rule distinguishes: equal, a proper prefix, an extension,
    and a path from a different vertex."""
    terms = []
    for m in x.terms:
        beta = m.beta
        reals = [beta, make_path(g, beta.source, beta.edges[: rng.randrange(len(beta.edges) + 1)])]
        extensions = g.out_edges(beta.target)
        if extensions:
            reals.append(make_path(g, beta.source, beta.edges + (rng.choice(extensions).id,)))
        reals.append(make_path(g, rng.choice(g.vertices)))
        for gamma in reals:
            coeff = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            terms.append(Monomial(coeff, gamma, make_path(g, gamma.target)))
            terms.append(Monomial(-coeff, gamma, gamma))
    return AlgebraElement(g, tuple(terms))


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def graph_and_two_elements(draw):
    g = draw(graphs(max_vertices=4, max_edges=6))
    pool = _monomial_pool(g, max_len=2)
    term = st.tuples(st.sampled_from(pool), _coefficients)

    def element():
        chosen = draw(st.lists(term, max_size=8))
        return AlgebraElement(g, tuple(Monomial(c, a, b) for (a, b), c in chosen))

    return element(), element()


def _with_own_paths(x):
    """x rebuilt through the validating constructor from a new path object
    for every path of every term: no path object of it is shared with
    another element."""
    g = x.graph
    return AlgebraElement(
        g,
        tuple(
            Monomial(m.coeff, make_path(g, m.alpha.source, m.alpha.edges), make_path(g, m.beta.source, m.beta.edges))
            for m in x.terms
        ),
    )


@given(graph_and_two_elements())
def test_products_merge_equal_paths_that_are_distinct_objects(xy):
    """The product merges its terms by the identity of their paths, so it
    must make equal paths of the two factors one object first."""
    x, y = xy
    own_x, own_y = _with_own_paths(x), _with_own_paths(y)
    for left, right in ((own_x, own_y), (own_y, own_x), (own_x, _with_own_paths(x)), (own_x, own_x)):
        assert_product_matches_oracle(left, right)
    assert own_x * own_y == x * y


def test_term_pairs_with_one_product_merge(unique_max):
    """Distinct term pairs whose products have the same (alpha, beta), with
    equal and with unequal denominators, and a sum that cancels."""
    g = unique_max

    def element(*terms):
        return AlgebraElement(
            g, tuple(Monomial(Fraction(c), make_path(g, *a), make_path(g, *b)) for c, a, b in terms)
        )

    u, e1 = ("u", ()), ("u", ("e1",))
    x = element((1, u, u), (1, e1, e1))
    assert x * element((1, u, u), (1, e1, e1)) == element((1, u, u), (3, e1, e1))
    x = element((Fraction(1, 2), u, u), (Fraction(1, 3), e1, e1))
    y = element((1, u, u), (Fraction(-3, 4), e1, e1))
    assert x * y == element((Fraction(1, 2), u, u), (Fraction(-7, 24), e1, e1))
    assert (element((1, e1, e1)) * element((1, u, u), (-1, e1, e1))).is_zero()
    for left, right in ((x, y), (y, x), (x, x)):
        assert_product_matches_oracle(left, right)


@given(graph_and_two_elements())
def test_product_matches_all_pairs_oracle(xy):
    x, y = xy
    for left, right in ((x, y), (y, x), (x, x), (x, zero(x.graph)), (zero(x.graph), y)):
        assert_product_matches_oracle(left, right)


def test_product_matches_oracle_on_the_acceptance_corpus():
    rng = random.Random(20260809)
    checked = 0
    for g in random_corpus(500):
        pool = _monomial_pool(g, max_len=2)
        x = _random_element(g, rng, pool)
        y = _random_element(g, rng, pool)
        for left, right in ((x, y), (x, _prefix_partners(g, x, rng)), (_prefix_partners(g, y, rng), y)):
            assert_product_matches_oracle(left, right)
            assert_product_matches_oracle(_with_own_paths(left), _with_own_paths(right))
            checked += not (left * right).is_zero()
    assert checked > 500


def test_product_term_shapes(unique_max):
    """Vertex-only, ghost-only, equal-path and nested-prefix terms."""
    g = unique_max
    u, v, w = (vertex_element(g, x) for x in "uvw")
    ghost = parse_element(g, "e1* e2*")  # (e1 e2)*, ending at w
    real = parse_element(g, "e1 e2")
    cases = [
        (u, u),
        (u, v),
        (ghost, real),  # equal paths: (e1 e2)* (e1 e2) = w
        (parse_element(g, "e1*"), real),  # e1 is a prefix of e1 e2
        (ghost, parse_element(g, "e1")),  # and the other way round
        (parse_element(g, "c*"), parse_element(g, "c c")),
        (parse_element(g, "c c*"), parse_element(g, "c | c* c*")),
        (parse_element(g, "u + f1 + 2 f1 g1 | f1* - e1*"), parse_element(g, "f1 g1 + u - 1/2 e1 e2")),
        (zero(g), real),
    ]
    for x, y in cases:
        assert_product_matches_oracle(x, y)
    assert ghost * real == w
    assert parse_element(g, "e1*") * real == edge_element(g, "e2")
    assert ghost * parse_element(g, "e1") == ghost_element(g, "e2")


def test_is_idempotent_on_sums_of_v_H():
    """Sums of distinct v^H (H = {w}) are idempotent; adding one twice is not."""
    g = breaking_emitters(3)
    v_h = [v_H_element(g, {"w"}, b) for b in g.vertices if b != "w"]
    for r in range(1, len(v_h) + 1):
        for chosen in combinations(v_h, r):
            total = sum(chosen[1:], chosen[0])
            assert is_idempotent(g, total)
            assert not is_idempotent(g, total + chosen[0])
            assert mul_brute(total, total) == _terms_by_key(total)


def test_parse_sum_and_scale_check_no_path_again(unique_max, monkeypatch):
    """Parsing checks each path as it reads it, and sums and multiples of
    valid elements are valid: none of them runs the constructor's check."""
    from lpaideals import algebra

    calls = []
    check = algebra._check_paths
    monkeypatch.setattr(algebra, "_check_paths", lambda g, m: calls.append(m) or check(g, m))
    x = parse_element(unique_max, "2/3 e1 - u + f1 | g1*")
    y = parse_element(unique_max, "u + c | c* - 3 e1")
    results = [x + y, x - x, x.scale(Fraction(-5, 2)), x.scale(0), -y]
    assert calls == []
    for z in results:
        assert AlgebraElement(unique_max, z.terms) == z
    assert results[1].is_zero() and results[3].is_zero()
    assert results[0] == parse_element(unique_max, "-7/3 e1 + f1 | g1* + c | c*")


def _300_term_factors(g, denominators=None):
    """Two 300-term elements over ``g``: their coefficients' denominators
    are drawn from 1-4, or are the 600 ``denominators`` in turn."""
    rng = random.Random(5)
    pool = _monomial_pool(g, max_len=4)
    chosen = iter(denominators or ())

    def element():
        pairs = rng.sample(pool, 300)
        return AlgebraElement(
            g,
            tuple(
                Monomial(Fraction(rng.choice([-3, -1, 1, 2]), next(chosen, None) or rng.randint(1, 4)), a, b)
                for a, b in pairs
            ),
        )

    return _with_own_paths(element()), _with_own_paths(element())


def _primes(count):
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def _coprime_factors(g):
    """Two 300-term elements whose 600 coefficients have pairwise-coprime
    denominators: the first 600 primes."""
    return _300_term_factors(g, _primes(600))


def test_equal_paths_of_a_product_are_one_object(unique_max):
    """A product of two 300-term elements builds each distinct path once."""
    x, y = _300_term_factors(unique_max)
    product = x * y
    paths = [p for m in product.terms for p in (m.alpha, m.beta)]
    assert len(set(paths)) < len(paths) // 4
    assert len({id(p) for p in paths}) == len(set(paths))


def test_a_product_with_pairwise_coprime_denominators_is_exact(unique_max):
    """Each row of a product keeps its own exact (num, den).  Over these
    factors one common denominator per factor would be a product of 300
    primes, and every sum would carry it."""
    x, y = _coprime_factors(unique_max)
    assert len({m.coeff.denominator for m in x.terms + y.terms}) == 600
    assert_product_matches_oracle(x, y)


def test_a_product_checks_no_term_and_builds_each_coefficient_once(unique_max, monkeypatch):
    """The product's terms are valid by construction: none goes through
    the checking constructor, and each distinct coefficient is one
    Fraction."""
    x, y = _300_term_factors(unique_max)
    checked, built = [], []
    post_init, new = Monomial.__post_init__, Fraction.__new__
    monkeypatch.setattr(Monomial, "__post_init__", lambda m: checked.append(m) or post_init(m))
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    product = x * y
    monkeypatch.undo()
    coefficients = {m.coeff for m in product.terms}
    assert len(product.terms) > 5000 and checked == []
    assert 0 < len(built) <= len(coefficients) == len({id(m.coeff) for m in product.terms})


def test_long_coefficients_under_the_default_digit_limit(unique_max):
    """Python refuses int-str conversions above 4,300 digits by default
    (3.10.7 on); the library reads and prints coefficient text of any
    length exactly, without lifting that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    long = "9" * 5000
    x = parse_element(unique_max, f"{long} u")
    assert x.terms[0].coeff == 10**5000 - 1
    assert render_element(x) == f"{long} u"
    sparse = "1" + "0" * 6000 + "7"  # a low half that is mostly leading zeros
    y = parse_element(unique_max, f"- {sparse}/{long} u + 1/{sparse} c")
    assert [m.coeff for m in y.terms] == [Fraction(-(10**6001 + 7), 10**5000 - 1), Fraction(1, 10**6001 + 7)]
    assert render_element(y) == f"-{sparse}/{long} u + 1/{sparse} c"
    a, b = "1" + "0" * 2998 + "3", "2" + "0" * 2998 + "1"
    product = parse_element(unique_max, f"{a} c") * parse_element(unique_max, f"{b} c")
    assert render_element(product) == "2" + "0" * 2998 + "7" + "0" * 2998 + "3 c c"
    with pytest.raises(GraphError):
        parse_element(unique_max, f"{long}/{'0' * 5000} u")
    rng = random.Random(5)
    for digits in (1, 19, 20, 4300, 4301, 9001):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        text = _coefficient_text(n, 1)
        assert len(text) == digits and parse_element(unique_max, f"{text} u").terms[0].coeff == n
        assert _coefficient_text(-n, 7) == f"-{text}/7"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_real_part_vertices_are_checked_by_lookup():
    """A one-token real part is looked up in the graph's id dict: a sum of
    20,000 vertices parses well within a second, where a scan of the vertex
    tuple per token took seconds."""
    g = DirectedGraph.from_parts([f"v{i}" for i in range(20_000)])
    start = time.perf_counter()
    x = parse_element(g, " + ".join(g.vertices))
    assert time.perf_counter() - start < 1.0
    assert len(x.terms) == 20_000


def test_elements_combine_only_with_elements_over_their_graph():
    u = vertex_element(unique_maximal_graph(), "u")
    other = vertex_element(mixed_maximals_graph(), "u")
    for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(GraphError) as exc:
            combine(u, other)
        assert str(exc.value) == "elements live over different graphs"
        with pytest.raises(TypeError) as exc:
            combine(u, 1)
        assert str(exc.value) == "cannot combine with int"


def test_an_integer_coefficient_is_kept_as_a_fraction():
    p = make_path(unique_maximal_graph(), "u")
    m = Monomial(2, p, p)
    assert type(m.coeff) is Fraction and m.coeff == 2


def test_a_path_whose_target_disagrees_with_its_edges_is_refused():
    """e1 runs u -> v, so a path (u, e1) that claims to end at w belongs to
    no graph, although its range matches the w of the other path."""
    g = unique_maximal_graph()
    wrong = PathWord("u", ("e1",), "w")
    with pytest.raises(GraphError, match="monomial uses paths foreign to this graph"):
        AlgebraElement(g, (Monomial(Fraction(1), wrong, make_path(g, "w")),))
