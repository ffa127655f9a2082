"""The values the library builds unchecked equal the checked ones.

``graph._trusted`` builds the admissible pairs, the non-graded families,
the algebra elements and their terms that the library has already
checked, each with no ``__post_init__``.  Each such value must equal what
the checked constructor builds from its fields, on ``==``, ``hash`` and
``repr``, and hold exactly what the checked one holds: a field name
misspelled in a ``_trusted`` call would leave the field at its class
default (``S`` at ``frozenset()``) with no error.  Every pair and every
family, checked or not, holds the B_H (``_b_h``) it was built with from
its build on, out of equality, hashing and ``repr``.
"""

import dataclasses
import random

from conftest import breaker_below_coatom, breaker_below_coatom_with_loop, random_corpus
from test_golden import GRAPHS
from transcripts import _element_text
from test_algebra import _monomial_pool
from lpaideals import (
    AdmissiblePair,
    AlgebraElement,
    GradedIdeal,
    NonGradedFamily,
    breaking_vertices,
    enumerate_primes,
    existence_report,
    gr_of,
    maximal_graded_ideals,
    maximal_nongraded_families,
    parse_element,
)
from lpaideals.algebra import Monomial


def _graphs():
    fixtures = [make() for make in GRAPHS.values()]
    return fixtures + [breaker_below_coatom(), breaker_below_coatom_with_loop()] + random_corpus(500, seed=20260809)


def assert_same(trusted, checked, kept=frozenset()):
    """``trusted`` equals ``checked``, field by field, and both hold
    exactly their dataclass fields plus the private values ``kept``."""
    assert type(trusted) is type(checked)
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
    fields = {f.name for f in dataclasses.fields(checked)}
    assert set(vars(trusted)) == set(vars(checked)) == fields | kept
    assert {name: vars(trusted)[name] for name in fields} == {name: vars(checked)[name] for name in fields}


def assert_same_pair(pair):
    """Checked before anything reads ``pair._b_h``: B_H is held from the build."""
    g = pair.graph
    checked = AdmissiblePair(g, pair.H, pair.S)
    assert_same(pair, checked, {"_b_h"})
    assert vars(pair)["_b_h"] == vars(checked)["_b_h"] == breaking_vertices(g, pair.H)


def assert_same_family(family):
    """Checked before anything reads ``family._b_h``: B_H is held from the build."""
    g = family.graph
    checked = NonGradedFamily(g, family.H, family.cycle)
    assert_same(family, checked, {"_b_h"})
    assert vars(family)["_b_h"] == vars(checked)["_b_h"] == breaking_vertices(g, family.H)
    assert_same_pair(gr_of(family))


def test_the_ideals_built_unchecked_equal_the_checked_ones():
    for g in _graphs():
        report = existence_report(g)
        families = maximal_nongraded_families(g) + list(report.nongraded_maximal_families)
        pairs = maximal_graded_ideals(g) + list(report.graded_maximals)
        for d in enumerate_primes(g):
            if isinstance(d, GradedIdeal):
                pairs.append(d.pair)
            else:
                families.append(d)
        assert pairs
        for pair in pairs:
            assert_same_pair(pair)
        for family in families:
            assert_same_family(family)


def assert_same_element(x):
    assert_same(x, AlgebraElement(x.graph, x.terms))
    for m in x.terms:
        assert_same(m, Monomial(m.coeff, m.alpha, m.beta))


def test_the_elements_built_unchecked_equal_the_checked_ones():
    for i, g in enumerate(_graphs()):
        rng = random.Random(i)
        pool = _monomial_pool(g, max_len=2)
        for _ in range(3):
            x, y = (parse_element(g, _element_text(rng, pool)) for _ in "xy")
            for z in (x, y, x * y, y * x, x * x, x + y, x - y, x.scale(0), x.scale(-2)):
                assert_same_element(z)
