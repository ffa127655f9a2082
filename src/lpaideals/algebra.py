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


def _number(index: dict, paths: list, p: PathWord) -> int:
    """The number of the path ``p`` among the distinct paths met so far:
    its place in ``paths``, keyed in ``index`` by its source and edges
    (which fix its target), so that equal paths share one number and one
    object."""
    key = (p.source, p.edges)
    n = index.get(key)
    if n is None:
        n = index[key] = len(paths)
        paths.append(p)
    return n


def _add_row(rows: dict, a: int, b: int, num: int, den: int) -> None:
    """Add num/den alpha beta* to ``rows``, which holds the sum at each
    alpha's number and, inside it, at each beta's number as [num, den]."""
    row = rows.setdefault(a, {})
    entry = row.get(b)
    if entry is None:
        row[b] = [num, den]
    elif entry[1] == den:
        entry[0] += num
    else:
        entry[0] = entry[0] * den + num * entry[1]
        entry[1] *= den


def _canonical_terms(rows: dict, index: dict, paths: list) -> tuple[Monomial, ...]:
    """The canonical terms of ``rows`` over the numbered ``paths``: zero
    sums dropped, sorted by (alpha, beta).  The order is read off integer
    ranks of the distinct paths, each distinct coefficient becomes one
    Fraction, and each term is built without a second check, as
    ``graph._trusted`` builds, with its three fields written in place."""
    rank = [0] * len(paths)
    for r, key in enumerate(sorted(index)):
        rank[index[key]] = r
    by_rank = rank.__getitem__
    fractions: dict[tuple[int, int], Fraction] = {}  # a row's (num, den) -> its Fraction
    values: dict[tuple[int, int], Fraction] = {}  # the same, keyed by lowest terms
    new = object.__new__
    terms = []
    for a in sorted(rows, key=by_rank):
        alpha, row = paths[a], rows[a]
        for b in sorted(row, key=by_rank):
            num, den = row[b]
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
            term = new(Monomial)
            fields = term.__dict__
            fields["coeff"] = coeff
            fields["alpha"] = alpha
            fields["beta"] = paths[b]
            terms.append(term)
    return tuple(terms)


def _merged(monomials) -> tuple[Monomial, ...]:
    """The canonical terms of a sum of monomials, whose equal paths may be
    distinct objects."""
    index: dict[tuple, int] = {}
    paths: list[PathWord] = []
    rows: dict = {}
    for m in monomials:
        a, b = _number(index, paths, m.alpha), _number(index, paths, m.beta)
        _add_row(rows, a, b, m.coeff.numerator, m.coeff.denominator)
    return _canonical_terms(rows, index, paths)


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

        Every path met gets a small number (``_number``), and the rows add
        up at the numbers of their paths, each sum an exact [num, den] (a
        common denominator per factor would grow with the factors).  The
        right factor's terms are indexed by each prefix of their real path c
        into groups that share one suffix, the empty one for the terms of
        that c, so a left term a b* looks up each group's result path once,
        not once per row.  The paths (d rest) that the c shorter than b give
        are built once per distinct b.  The product of two valid monomials
        is valid, so it is not checked again; equal paths in it are one object.
        """
        self._same_algebra(other)
        index: dict[tuple, int] = {}
        paths: list[PathWord] = []
        extending: dict[tuple, dict] = {}  # a prefix of c -> the suffix -> (target, rows)
        for m in other.terms:
            gamma = m.alpha
            source, edges = gamma.source, gamma.edges
            right = (m.coeff.numerator, m.coeff.denominator, _number(index, paths, m.beta))
            for k in range(len(edges) + 1):
                groups = extending.setdefault((source, edges[:k]), {})
                group = groups.get(edges[k:])
                if group is None:
                    groups[edges[k:]] = (gamma.target, [right])
                else:
                    group[1].append(right)

        rows: dict[int, dict] = {}
        shorter: dict[tuple, list[tuple]] = {}  # b -> (num, den, number of d rest), c + rest = b
        for m in self.terms:
            alpha, beta = m.alpha, m.beta
            ghost = (beta.source, beta.edges)
            sums = []  # (the sums at one result alpha, the right rows they take)
            # c = b + rest: (a b*)(c d*) = (a rest) d*
            for rest, (target, group) in extending.get(ghost, {}).items():
                key = (alpha.source, alpha.edges + rest)
                a = index.get(key)
                if a is None:
                    a = index[key] = len(paths)
                    paths.append(PathWord(alpha.source, key[1], target))
                sums.append((rows.setdefault(a, {}), group))
            # b = c + rest, rest non-empty: a (d rest)*
            partners = shorter.get(ghost)
            if partners is None:
                partners = shorter[ghost] = []
                for k in range(len(beta.edges)):
                    rest = beta.edges[k:]
                    for num2, den2, number in extending.get((beta.source, beta.edges[:k]), {}).get((), (0, ()))[1]:
                        delta = paths[number]
                        key = (delta.source, delta.edges + rest)
                        b = index.get(key)
                        if b is None:
                            b = index[key] = len(paths)
                            paths.append(PathWord(delta.source, key[1], beta.target))
                        partners.append((num2, den2, b))
            if partners:
                sums.append((rows.setdefault(_number(index, paths, alpha), {}), partners))
            num, den = m.coeff.numerator, m.coeff.denominator
            for row, group in sums:
                for num2, den2, b in group:
                    n, d = num * num2, den * den2
                    entry = row.get(b)
                    if entry is None:
                        row[b] = [n, d]
                    elif entry[1] == d:
                        entry[0] += n
                    else:
                        entry[0] = entry[0] * d + n * entry[1]
                        entry[1] *= d
        return _trusted(AlgebraElement, graph=self.graph, terms=_canonical_terms(rows, index, paths))

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
            if not current and not reader.rows:  # a sign before the first term
                sign *= step
                continue
            reader.read(current, sign)
            current = []
            sign = step
        else:
            current.append(tok)
    reader.read(current, sign)
    return _trusted(AlgebraElement, graph=g, terms=_canonical_terms(reader.rows, reader.index, reader.paths))


class _TermReader:
    """Reads the terms of one element expression into rows (``_add_row``).
    Each distinct run of real or of ghost tokens becomes a path once, and
    equal paths are one object with one number (``_number``)."""

    def __init__(self, g: DirectedGraph):
        self.g = g
        self.rows: dict = {}
        self.index: dict[tuple, int] = {}
        self.paths: list[PathWord] = []
        self._reals: dict[tuple[str, ...], int] = {}
        self._ghosts: dict[tuple[str, ...], int] = {}

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
        paths = self.paths
        a = self._run(self._reals, real, _parse_real_part) if real else None
        if ghost:
            b = self._run(self._ghosts, ghost, _paths_from_edges)
            if a is None:
                a = self._vertex(paths[b].target)
        else:  # every token but a lone "|" joins one part, so a is set
            b = self._vertex(paths[a].target)
        if paths[a].target != paths[b].target:
            raise GraphError(
                f"real part ends at {paths[a].target!r} but ghost part ends at {paths[b].target!r}"
            )
        if not num:
            raise GraphError("monomials carry nonzero coefficients")
        _add_row(self.rows, a, b, num, den)

    def _run(self, runs: dict, names: list[str], read) -> int:
        """The number of the path of a run of real or ghost tokens, read
        on first sight."""
        key = tuple(names)
        n = runs.get(key)
        if n is None:
            n = runs[key] = _number(self.index, self.paths, read(self.g, names))
        return n

    def _vertex(self, v: str) -> int:
        n = self.index.get((v, ()))
        if n is None:
            n = _number(self.index, self.paths, PathWord(v, (), v))
        return n


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
    return "".join(_term_texts(x.terms)[0]) or "0"


def _term_texts(terms, frame=None):
    """The one text rule of elements: the canonical text form of ``terms``
    as one piece per term (joined to the piece before by ' + ' or ' - '),
    and, given a ``frame`` (``cli._TermsJSON``), the ``mul --json`` terms
    list as three pieces per term: its alpha's head, its beta's block and
    its coefficient's tail.

    Each distinct coefficient and ghost path is written once, keyed by
    the identity of its object, and each alpha once per run of terms that
    share it; in canonical order one run holds all of an alpha's terms.
    The frame writes each piece of JSON, and the rule picks each term's
    pieces."""
    texts: list[str] = []
    items: list[str] = []
    coeffs: dict[int, tuple] = {}  # id of a coefficient -> _coefficient_texts
    ghosts: dict[int, tuple] = {}  # id of a beta -> its ghost text, its block
    alpha = None
    later = 0  # 0 on the first term, 1 on a later one: which head the coefficient takes
    for m in terms:
        if m.alpha is not alpha:
            alpha = m.alpha
            first = alpha.edges[0] if alpha.edges else alpha.source
            real = " ".join(alpha.edges) or first
            # 2 where the term's text opens with an id that reads as a coefficient
            alone = 2 if _COEFF_RE.match(first) else 0
            joined, before = (real + " | ", alone) if alpha.edges else ("", 0)
            if frame is not None:
                head = frame.head(alpha)
        coeff = coeffs.get(id(m.coeff))
        if coeff is None:
            c = m.coeff
            coeff = coeffs[id(c)] = _coefficient_texts(c.numerator, c.denominator, frame)
        beta = m.beta
        ghost = ghosts.get(id(beta))
        if ghost is None:
            ghost = ghosts[id(beta)] = (" ".join([e + "*" for e in beta.edges]), frame and frame.block(beta))
        if beta.edges:
            texts.append(coeff[later + before] + joined + ghost[0])
        else:
            texts.append(coeff[later + alone] + real)
        later = 1
        if frame is not None:
            items += (head, ghost[1], coeff[4])
    return texts, items


def _coefficient_texts(num: int, den: int, frame=None) -> tuple:
    """A coefficient's heads in the text form: on the first term and on a
    later one (where the sign becomes ' + ' or ' - '), each with a
    coefficient of 1 left out, then each written out, for a term whose
    first id would read as a coefficient; and, given a ``frame``, its tail
    in the ``mul --json`` terms list."""
    signed = _coefficient_text(num, den)
    first, later = signed + " ", (" - " if num < 0 else " + ") + signed.lstrip("-") + " "
    tail = frame.tail(signed) if frame is not None else None
    if abs(num) == 1 and den == 1:
        return "" if num == 1 else first, later[:3], first, later, tail
    return first, later, first, later, tail


def _coefficient_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, for integers of any length: Python
    (3.10.7 on) refuses int-str conversions above a digit limit, 4,300
    by default, and ``decimal`` converts without one."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # over the limit
        from decimal import Decimal

        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"
