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
from fractions import Fraction
from math import gcd

from .graph import DirectedGraph, GraphError, _trusted

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
    if isinstance(edge_ids, str):  # one str is not read as its characters
        raise GraphError(f"an edge sequence is a collection of ids, not the string {edge_ids!r}")
    edge_ids = tuple(edge_ids)
    at = source
    for eid in edge_ids:
        e = g.edge(eid)
        if e.src != at:
            raise GraphError(f"edge {eid!r} does not start at {at!r}")
        at = e.dst
    return PathWord(source, edge_ids, at)


@dataclass(frozen=True)
class Monomial:
    """coeff * alpha * beta-star with matching ranges, coeff nonzero."""

    coeff: Fraction
    alpha: PathWord
    beta: PathWord

    def __post_init__(self):
        if type(self.coeff) is not Fraction:
            vars(self).update(coeff=Fraction(self.coeff))
        if not self.coeff:
            raise GraphError("monomials carry nonzero coefficients")
        if self.alpha.target != self.beta.target:
            raise GraphError("alpha and beta must have the same range")

    @property
    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)


def _add_row(merged: dict, num: int, den: int, alpha: PathWord, beta: PathWord) -> None:
    """Add num/den alpha beta* to ``merged``, keyed by the paths' identity."""
    entry = merged.get((id(alpha), id(beta)))
    if entry is None:
        merged[id(alpha), id(beta)] = [num, den, alpha, beta]
    elif entry[1] == den:
        entry[0] += num
    else:
        entry[0] = entry[0] * den + num * entry[1]
        entry[1] *= den


def _canonical_terms(merged: dict, paths) -> tuple[Monomial, ...]:
    """The canonical terms of the rows that ``_add_row`` merged, whose
    equal paths are one object, each held once in ``paths``: zero sums
    dropped, sorted by (alpha, beta).  The order is read off integer ranks
    of the distinct paths, never off their identity, and each distinct
    coefficient becomes one Fraction."""
    rank = {id(p): r for r, p in enumerate(sorted(paths, key=lambda p: (p.source, p.edges)))}
    n = len(rank)
    keys = [rank[a] * n + rank[b] for a, b in merged]
    fractions: dict[tuple[int, int], Fraction] = {}  # a row's (num, den) -> its Fraction
    values: dict[tuple[int, int], Fraction] = {}  # the same, keyed by lowest terms
    terms = []
    for _, (num, den, alpha, beta) in sorted(zip(keys, merged.values())):
        if not num:
            continue
        coeff = fractions.get((num, den))
        if coeff is None:
            d = gcd(num, den)
            lowest = (num // d, den // d)
            coeff = values.get(lowest)
            if coeff is None:
                coeff = values[lowest] = Fraction(*lowest)
            fractions[num, den] = coeff
        terms.append(_trusted(Monomial, coeff=coeff, alpha=alpha, beta=beta))
    return tuple(terms)


def _merged(monomials) -> tuple[Monomial, ...]:
    """The canonical terms of a sum of monomials, whose equal paths may be
    distinct objects."""
    paths: dict[tuple, PathWord] = {}
    merged: dict = {}
    for m in monomials:
        alpha = paths.setdefault((m.alpha.source, m.alpha.edges), m.alpha)
        beta = paths.setdefault((m.beta.source, m.beta.edges), m.beta)
        _add_row(merged, m.coeff.numerator, m.coeff.denominator, alpha, beta)
    return _canonical_terms(merged, paths.values())


@dataclass(frozen=True)
class AlgebraElement:
    """Canonical finite sum of monomials: sorted, merged, no zero terms."""

    graph: DirectedGraph = field(repr=False)
    terms: tuple[Monomial, ...] = ()

    def __post_init__(self):
        for m in self.terms:
            _check_paths(self.graph, m)
        vars(self).update(terms=_merged(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def _same_algebra(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.graph != other.graph:
            raise GraphError("elements live over different graphs")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return _trusted(AlgebraElement, graph=self.graph, terms=_merged(self.terms + other.terms))

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        k = Fraction(k)
        # a non-zero multiple keeps the terms distinct, non-zero and sorted
        terms = [_trusted(Monomial, coeff=k * m.coeff, alpha=m.alpha, beta=m.beta) for m in self.terms if k]
        return _trusted(AlgebraElement, graph=self.graph, terms=tuple(terms))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """The product by the prefix rule: (a b*)(c d*) is non-zero only when
        b and c start at one vertex and one is a prefix of the other.

        The right factor's terms are indexed by the exact real path c and
        by every prefix of it, so each left term looks up the c that extend
        its b (c = b included) once, and the proper prefixes of b one by one.
        The product of two valid monomials is valid, so it is not checked
        again.  Each result path is built once, keyed by its source and
        edges (which fix its target): equal paths in the product are one
        object, so the products merge by the identity of their paths.
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

        merged: dict = {}
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
                _add_row(merged, num * num2, den * den2, path, delta)
            # beta = gamma + rest, rest non-empty: alpha (delta rest)*
            for k in range(cut):
                for num2, den2, _, delta in exact.get((beta.source, beta.edges[:k]), ()):
                    key = (delta.source, delta.edges + beta.edges[k:])
                    path = paths.get(key)
                    if path is None:
                        path = paths[key] = PathWord(delta.source, key[1], beta.target)
                    _add_row(merged, num * num2, den * den2, alpha, path)
        return _trusted(AlgebraElement, graph=self.graph, terms=_canonical_terms(merged, paths.values()))

    def is_idempotent(self) -> bool:
        return self * self == self

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed or zero."""
        degrees = {m.degree for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None


def _check_paths(g: DirectedGraph, m: Monomial) -> None:
    for p in (m.alpha, m.beta):
        rebuilt = make_path(g, p.source, p.edges)
        if rebuilt != p:
            raise GraphError("monomial uses paths foreign to this graph")


# -- constructors ------------------------------------------------------


def zero(g: DirectedGraph) -> AlgebraElement:
    return AlgebraElement(g, ())


def vertex_element(g: DirectedGraph, v: str) -> AlgebraElement:
    return monomial_element(g, v, (), v, ())


def edge_element(g: DirectedGraph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    return monomial_element(g, e.src, (edge_id,), e.dst, ())


def ghost_element(g: DirectedGraph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    return monomial_element(g, e.dst, (), e.src, (edge_id,))


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
    from lpaideals.lattice import breaking_vertices

    hset = g.require_vertices(subset)
    if v not in breaking_vertices(g, hset):
        raise GraphError(f"{v!r} is not a breaking vertex of the given set")
    p = make_path(g, v)
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
    reader = _TermReader(g)
    current: list[str] = []
    sign = 1
    for tok in tokens:
        if tok == "+" or tok == "-":
            step = 1 if tok == "+" else -1
            if not current and not reader.merged:  # a sign before the first term
                sign *= step
                continue
            reader.read(current, sign)
            current = []
            sign = step
        else:
            current.append(tok)
    reader.read(current, sign)
    return _trusted(AlgebraElement, graph=g, terms=_canonical_terms(reader.merged, reader.paths.values()))


class _TermReader:
    """Reads the terms of one element expression into merged rows.  Each
    distinct run of real or of ghost tokens becomes a path once, and
    equal paths are one object (``paths``, keyed by source and edges)."""

    def __init__(self, g: DirectedGraph):
        self.g = g
        self.merged: dict = {}
        self.paths: dict[tuple, PathWord] = {}
        self._reals: dict[tuple[str, ...], PathWord] = {}
        self._ghosts: dict[tuple[str, ...], PathWord] = {}

    def read(self, tokens: list[str], sign: int) -> None:
        if not tokens:
            raise GraphError("empty term in element expression")
        num, den = sign, 1
        if _COEFF_RE.match(tokens[0]):
            text, _, den_text = tokens[0].partition("/")
            den = _integer(den_text) if den_text else 1
            if not den:
                raise GraphError(f"zero denominator in coefficient {tokens[0]!r}")
            num *= _integer(text)
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
        alpha = self._run(self._reals, real, _parse_real_part) if real else None
        if ghost:
            beta = self._run(self._ghosts, ghost, _paths_from_edges)
            if alpha is None:
                alpha = self._vertex(beta.target)
        else:  # every token but a lone "|" joins one part, so alpha is set
            beta = self._vertex(alpha.target)
        if alpha.target != beta.target:
            raise GraphError(
                f"real part ends at {alpha.target!r} but ghost part ends at {beta.target!r}"
            )
        if not num:
            raise GraphError("monomials carry nonzero coefficients")
        _add_row(self.merged, num, den, alpha, beta)

    def _run(self, runs: dict, names: list[str], read) -> PathWord:
        """The path of a run of real or ghost tokens, read on first sight."""
        key = tuple(names)
        p = runs.get(key)
        if p is None:
            p = read(self.g, names)
            p = runs[key] = self.paths.setdefault((p.source, p.edges), p)
        return p

    def _vertex(self, v: str) -> PathWord:
        p = self.paths.get((v, ()))
        if p is None:
            p = self.paths[v, ()] = PathWord(v, (), v)
        return p


def _integer(digits: str) -> int:
    """``int(digits)`` for an optional sign and decimal digits of any
    length: past int()'s digit limit (_coefficient_text) through decimal."""
    try:
        return int(digits)
    except ValueError:  # over the limit
        from decimal import Decimal

        return int(Decimal(digits))


def _parse_real_part(g: DirectedGraph, tokens: list[str]) -> PathWord:
    if len(tokens) == 1:
        name = tokens[0]
        is_vertex = name in g._out_edges  # keyed by vertex id: a lookup, not a scan
        is_edge = g.has_edge_id(name)
        if is_vertex and is_edge:
            raise GraphError(f"{name!r} names both a vertex and an edge; ambiguous")
        if is_vertex:
            return make_path(g, name)
    return _paths_from_edges(g, tokens)


def _paths_from_edges(g: DirectedGraph, edge_ids: list[str]) -> PathWord:
    first = g.edge(edge_ids[0])
    return make_path(g, first.src, edge_ids)


def render_element(x: AlgebraElement) -> str:
    """Canonical text form, which parse_element reads back as x unless an
    id names both a vertex and an edge (ambiguous) or is '+' or '-'."""
    return "".join([part for part, _, _ in _term_texts(x.terms)]) or "0"


def _term_texts(terms):
    """Each term's piece of the canonical text form (joined to the piece
    before by ' + ' or ' - '), its signed coefficient text, and the term.
    Each distinct coefficient, real path and ghost path is written once,
    keyed by the identity of its object."""
    coeffs: dict[int, tuple[str, str, str, str, str]] = {}
    reals: dict[int, tuple[str, bool]] = {}
    ghosts: dict[int, str] = {}
    head = 1  # where the coefficient's head sits: 1 on the first piece, 2 after
    for m in terms:
        coeff = coeffs.get(id(m.coeff))
        if coeff is None:
            coeff = coeffs[id(m.coeff)] = _coefficient_texts(m.coeff.numerator, m.coeff.denominator)
        alpha, beta = m.alpha, m.beta
        real = reals.get(id(alpha))
        if real is None:  # the real path's text, and if its first id reads as a coefficient
            first = alpha.edges[0] if alpha.edges else alpha.source
            real = reals[id(alpha)] = (" ".join(alpha.edges) or first, bool(_COEFF_RE.match(first)))
        body, numeric = real
        if beta.edges:
            ghost = ghosts.get(id(beta))
            if ghost is None:
                ghost = ghosts[id(beta)] = " ".join([eid + "*" for eid in beta.edges])
            body, numeric = (body + " | " + ghost, numeric) if alpha.edges else (ghost, False)
        yield coeff[head if numeric else head + 2] + body, coeff[0], m
        head = 2


def _coefficient_texts(num: int, den: int) -> tuple[str, str, str, str, str]:
    """A coefficient's signed text; its head on the first term of the text
    form and on a later one, where the sign becomes ' + ' or ' - '; and
    the same two heads with a coefficient of 1 left out, used unless the
    term's first id would then read as a coefficient."""
    signed = _coefficient_text(num, den)
    first, later = signed + " ", (" - " if num < 0 else " + ") + signed.lstrip("-") + " "
    if abs(num) == 1 and den == 1:
        return signed, first, later, "" if num == 1 else first, later[:3]
    return signed, first, later, first, later


def _coefficient_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, for integers of any length: Python
    (3.10.7 on) refuses int-str conversions above a digit limit, 4,300
    by default, and ``decimal`` converts without one."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # over the limit
        from decimal import Decimal

        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"
