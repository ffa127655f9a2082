"""Exact arithmetic on linear combinations of monomials alpha·beta*.

Multiplication collapses ghost-against-real path pairs by the prefix
rule (beta* gamma is a path remainder, a ghost remainder, or zero), so
products are normal modulo the first Cuntz-Krieger relation only.  The
second relation is deliberately not rewritten: equality of elements is
therefore sound for the identities exercised here but is not a decision
procedure for equality in the full algebra.

Coefficients are exact rationals; the ground field never enters the
classification outputs, so nothing else is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .graph import DirectedGraph, GraphError
from .lattice import breaking_vertices

_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")


@dataclass(frozen=True)
class PathWord:
    """A path: a source vertex and a composable list of named edge ids.

    An empty edge list is the length-zero path sitting at its source
    (source == target).
    """

    source: str
    edges: tuple[str, ...]
    target: str

    def __len__(self) -> int:
        return len(self.edges)


def make_path(g: DirectedGraph, source: str, edge_ids=()) -> PathWord:
    g.require_vertex(source)
    edge_ids = tuple(edge_ids)
    at = source
    for eid in edge_ids:
        e = g.edge(eid)
        if e.src != at:
            raise GraphError(f"edge {eid!r} does not start at {at!r}")
        at = e.dst
    return PathWord(source, edge_ids, at)


def vertex_path(g: DirectedGraph, v: str) -> PathWord:
    return make_path(g, v)


@dataclass(frozen=True)
class Monomial:
    """coeff * alpha * beta-star with matching ranges, coeff nonzero."""

    coeff: Fraction
    alpha: PathWord
    beta: PathWord

    def __post_init__(self):
        if type(self.coeff) is not Fraction:
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if not self.coeff:
            raise GraphError("monomials carry nonzero coefficients")
        if self.alpha.target != self.beta.target:
            raise GraphError("alpha and beta must have the same range")

    @property
    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)


def _canonical_terms(terms) -> tuple[Monomial, ...]:
    """The canonical terms of a sum of (numerator, denominator, alpha, beta)
    with positive denominators: terms with the same paths merged, zero
    sums dropped, sorted by (alpha, beta).  Coefficients stay integer
    pairs until the end, so each output term builds one Fraction."""
    merged: dict[tuple, list] = {}
    for num, den, alpha, beta in terms:
        key = (alpha.source, alpha.edges, beta.source, beta.edges)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [num, den, alpha, beta]
        else:
            entry[0] = entry[0] * den + num * entry[1]
            entry[1] *= den
    return tuple(
        Monomial(Fraction(num, den), alpha, beta)
        for num, den, alpha, beta in (merged[key] for key in sorted(merged))
        if num
    )


def _merged(monomials) -> tuple[Monomial, ...]:
    """The canonical terms of a sum of monomials."""
    return _canonical_terms((m.coeff.numerator, m.coeff.denominator, m.alpha, m.beta) for m in monomials)


@dataclass(frozen=True)
class AlgebraElement:
    """Canonical finite sum of monomials: sorted, merged, no zero terms."""

    graph: DirectedGraph = field(repr=False)
    terms: tuple[Monomial, ...] = ()

    def __post_init__(self):
        for m in self.terms:
            _check_paths(self.graph, m)
        object.__setattr__(self, "terms", _merged(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def _same_algebra(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.graph != other.graph:
            raise GraphError("elements live over different graphs")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return _element(self.graph, _merged(self.terms + other.terms))

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        k = Fraction(k)
        if k == 0:
            return _element(self.graph, ())
        # a non-zero multiple keeps the terms distinct, non-zero and sorted
        return _element(self.graph, tuple(Monomial(k * m.coeff, m.alpha, m.beta) for m in self.terms))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """The product by the prefix rule: (a b*)(c d*) is non-zero only when
        b and c start at one vertex and one is a prefix of the other.

        The right factor's terms are indexed by the exact real path c and
        by every prefix of it, so each left term looks up the c that extend
        its b (c = b included) once, and the proper prefixes of b one by one.
        The product of two valid monomials is valid, so it is not checked
        again.  Each result path is built once, keyed by its source and
        edges (which fix its target): equal paths in the product are one
        object.
        """
        self._same_algebra(other)
        paths: dict[tuple, PathWord] = {}

        def shared(p: PathWord) -> PathWord:
            return paths.setdefault((p.source, p.edges), p)

        exact: dict[tuple, list[tuple]] = {}
        extending: dict[tuple, list[tuple]] = {}
        for m in other.terms:
            gamma = m.alpha
            entry = (m.coeff.numerator, m.coeff.denominator, gamma, shared(m.beta))
            exact.setdefault((gamma.source, gamma.edges), []).append(entry)
            for k in range(len(gamma.edges) + 1):
                extending.setdefault((gamma.source, gamma.edges[:k]), []).append(entry)

        def products():
            for m1 in self.terms:
                alpha, beta = shared(m1.alpha), m1.beta
                num, den = m1.coeff.numerator, m1.coeff.denominator
                cut = len(beta.edges)
                # gamma = beta + rest: (alpha beta*)(gamma delta*) = (alpha rest) delta*
                for num2, den2, gamma, delta in extending.get((beta.source, beta.edges), ()):
                    key = (alpha.source, alpha.edges + gamma.edges[cut:])
                    path = paths.get(key)
                    if path is None:
                        path = paths[key] = PathWord(alpha.source, key[1], gamma.target)
                    yield num * num2, den * den2, path, delta
                # beta = gamma + rest, rest non-empty: alpha (delta rest)*
                for k in range(cut):
                    for num2, den2, _, delta in exact.get((beta.source, beta.edges[:k]), ()):
                        key = (delta.source, delta.edges + beta.edges[k:])
                        path = paths.get(key)
                        if path is None:
                            path = paths[key] = PathWord(delta.source, key[1], beta.target)
                        yield num * num2, den * den2, alpha, path

        return _element(self.graph, _canonical_terms(products()))

    def is_idempotent(self) -> bool:
        return self * self == self

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed or zero."""
        degrees = {m.degree for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None


def _element(g: DirectedGraph, terms: tuple[Monomial, ...]) -> AlgebraElement:
    """An element over terms that are canonical and valid by construction."""
    x = object.__new__(AlgebraElement)
    object.__setattr__(x, "graph", g)
    object.__setattr__(x, "terms", terms)
    return x


def _check_paths(g: DirectedGraph, m: Monomial) -> None:
    for p in (m.alpha, m.beta):
        rebuilt = make_path(g, p.source, p.edges)
        if rebuilt != p:
            raise GraphError("monomial uses paths foreign to this graph")


# -- constructors ------------------------------------------------------


def zero(g: DirectedGraph) -> AlgebraElement:
    return AlgebraElement(g, ())


def vertex_element(g: DirectedGraph, v: str) -> AlgebraElement:
    p = vertex_path(g, v)
    return AlgebraElement(g, (Monomial(Fraction(1), p, p),))


def edge_element(g: DirectedGraph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    alpha = make_path(g, e.src, (edge_id,))
    return AlgebraElement(g, (Monomial(Fraction(1), alpha, vertex_path(g, e.dst)),))


def ghost_element(g: DirectedGraph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    beta = make_path(g, e.src, (edge_id,))
    return AlgebraElement(g, (Monomial(Fraction(1), vertex_path(g, e.dst), beta),))


def monomial_element(g, alpha_source, alpha_edges, beta_source, beta_edges, coeff=1):
    m = Monomial(
        Fraction(coeff),
        make_path(g, alpha_source, alpha_edges),
        make_path(g, beta_source, beta_edges),
    )
    return AlgebraElement(g, (m,))


def v_H_element(g: DirectedGraph, subset, v: str) -> AlgebraElement:
    """v minus the sum of e e* over named edges from v avoiding H.

    Only defined for breaking vertices v of H; the breaking condition
    makes the sum finite and over named edges only.
    """
    hset = g.require_vertices(subset)
    if v not in breaking_vertices(g, hset):
        raise GraphError(f"{v!r} is not a breaking vertex of the given set")
    p = vertex_path(g, v)
    terms = [Monomial(Fraction(1), p, p)]
    for e in g.out_edges(v):
        if e.dst not in hset:
            path = make_path(g, v, (e.id,))
            terms.append(Monomial(Fraction(-1), path, path))
    return AlgebraElement(g, tuple(terms))


def is_idempotent(g: DirectedGraph, x: AlgebraElement) -> bool:
    if x.graph != g:
        raise GraphError("element lives over a different graph")
    return x.is_idempotent()


# -- text syntax -------------------------------------------------------
#
# A term is whitespace-separated tokens: an optional rational
# coefficient, then a real path (edge ids, or a single vertex id), then
# a ghost path whose edge ids each carry a trailing '*'; a '|' token
# may separate the two parts.  Terms are joined by '+' / '-' tokens.
# The expression "0" on its own is the zero element.
# Examples over edges a: u->v, b: v->w, c: w->w and vertex u:
#     "u"            the vertex idempotent at u
#     "a b"          the path ab
#     "a b | c*"     (ab)(c)*
#     "c*"           the ghost edge alone (its real part is the range vertex)
#     "2/3 a - b | b*"


def parse_element(g: DirectedGraph, text: str) -> AlgebraElement:
    tokens = text.split()
    if not tokens:
        raise GraphError("empty element expression")
    if tokens == ["0"]:
        return zero(g)
    terms: list[Monomial] = []
    current: list[str] = []
    sign = Fraction(1)

    def flush(next_sign: Fraction):
        nonlocal current, sign
        if not current:
            raise GraphError("empty term in element expression")
        terms.append(_parse_term(g, current, sign))
        current = []
        sign = next_sign

    for tok in tokens:
        if tok in ("+", "-"):
            step = Fraction(1) if tok == "+" else Fraction(-1)
            if not current and not terms:
                sign *= step
            else:
                flush(step)
        else:
            current.append(tok)
    flush(Fraction(1))
    return _element(g, _merged(terms))


def _parse_term(g: DirectedGraph, tokens: list[str], sign: Fraction) -> Monomial:
    coeff = sign
    if _COEFF_RE.match(tokens[0]):
        # through decimal, which reads digits past int()'s limit (_coefficient_text)
        num, _, den = tokens[0].partition("/")
        den = int(Decimal(den or 1))
        if not den:
            raise GraphError(f"zero denominator in coefficient {tokens[0]!r}")
        coeff *= Fraction(int(Decimal(num)), den)
        tokens = tokens[1:]
        if not tokens:
            raise GraphError("a term needs a path part after its coefficient")
    real: list[str] = []
    ghost: list[str] = []
    after_pipe = False
    for tok in tokens:
        if tok == "|":
            if after_pipe:
                raise GraphError("at most one '|' per term")
            after_pipe = True
            continue
        starred = tok.endswith("*")
        name = tok[:-1] if starred else tok
        if not name:
            raise GraphError("empty id in element expression")
        if after_pipe or starred:
            ghost.append(name)
        else:
            if ghost:
                raise GraphError("real-path tokens cannot follow ghost tokens")
            real.append(name)
    if after_pipe and not ghost:
        raise GraphError("'|' must be followed by a ghost path")
    alpha = _parse_real_part(g, real)
    if ghost:
        beta = _paths_from_edges(g, ghost)
        if alpha is None:
            alpha = vertex_path(g, beta.target)
    else:
        if alpha is None:
            raise GraphError("a term needs a vertex, a path, or a ghost path")
        beta = vertex_path(g, alpha.target)
    if alpha.target != beta.target:
        raise GraphError(
            f"real part ends at {alpha.target!r} but ghost part ends at {beta.target!r}"
        )
    return Monomial(coeff, alpha, beta)


def _parse_real_part(g: DirectedGraph, tokens: list[str]) -> PathWord | None:
    if not tokens:
        return None
    if len(tokens) == 1:
        name = tokens[0]
        is_vertex = name in g.vertices
        is_edge = g.has_edge_id(name)
        if is_vertex and is_edge:
            raise GraphError(f"{name!r} names both a vertex and an edge; ambiguous")
        if is_vertex:
            return vertex_path(g, name)
    return _paths_from_edges(g, tokens)


def _paths_from_edges(g: DirectedGraph, edge_ids: list[str]) -> PathWord:
    first = g.edge(edge_ids[0])
    return make_path(g, first.src, edge_ids)


def render_element(x: AlgebraElement) -> str:
    """Canonical text form, re-parseable by parse_element.  The ghost
    tokens of each distinct ghost path are joined once."""
    if x.is_zero():
        return "0"
    parts: list[str] = []
    ghosts: dict[tuple[str, ...], str] = {}
    for i, m in enumerate(x.terms):
        tokens: list[str] = []
        num, den = m.coeff.numerator, m.coeff.denominator
        if i == 0:
            head = ""
        else:
            head = " - " if num < 0 else " + "
            num = abs(num)
        if num != 1 or den != 1:
            tokens.append(_coefficient_text(num, den))
        if m.alpha.edges:
            tokens.extend(m.alpha.edges)
        elif not m.beta.edges:
            tokens.append(m.alpha.source)
        edges = m.beta.edges
        if edges:
            if m.alpha.edges:
                tokens.append("|")
            ghost = ghosts.get(edges)
            if ghost is None:
                ghost = ghosts[edges] = " ".join(eid + "*" for eid in edges)
            tokens.append(ghost)
        parts.append(head + " ".join(tokens))
    return "".join(parts)


def _coefficient_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, for integers of any length: Python
    (3.10.7 on) refuses int-str conversions above a digit limit, 4,300
    by default, and ``decimal`` converts without one."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # over the limit
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"
