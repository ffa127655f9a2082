"""Command-line front end.

Exit codes: 0 success, 1 invalid graph input, 2 bad arguments,
3 resource cap exceeded, 141 standard output closed by its reader (as
under ``| head``; the status a shell reports for SIGPIPE).  With --json,
output is canonical JSON that is byte-identical across runs on
identical input.

Only ``graph`` is imported with this module.  Each command imports the
layers it runs when it runs, so that ``check`` never loads the lattice,
the ideals or the algebra.  These imports name the module absolutely
(``from lpaideals.lattice import ...``): a relative import inside a
function makes one more Python-level call each time it runs.  Each
reads the layer module's attribute at the call, so a function patched
on its defining module is the one the command calls.  Nor is argparse
imported for a well-formed command line: ``_read_command_line`` reads
that form, and argparse every other one.
"""

from __future__ import annotations

import collections
import functools
import gc
import os
import sys
import types
from json.encoder import encode_basestring_ascii as _encode_str

from .graph import (
    DEFAULT_CAP,
    MAX_EXACT_VERTICES,
    DirectedGraph,
    GraphError,
    ResourceCapError,
    _json_block,
    parse_graph,
    serialize_graph,
)


class UsageError(Exception):
    """A bad argument discovered after the command line is read (exit code 2)."""


# One option of a command, read after its graph path.  ``convert`` is
# None for a switch, which takes no value and is True when given.
_Option = collections.namedtuple(
    "_Option", "flag dest convert default choices required help", defaults=(None, None, False, None)
)
_JSON = _Option("--json", "json", None, False, help="emit canonical JSON")
_CAP = _Option(
    "--cap",
    "cap",
    int,
    DEFAULT_CAP,
    help="refuse when the hereditary saturated sets exceed this many (default %(default)s); check enumerates none",
)
_MAX_VERTICES = _Option(
    "--max-vertices",
    "max_vertices",
    int,
    MAX_EXACT_VERTICES,
    help="refuse exact lattice enumeration above this many vertices (default %(default)s)",
)
_REPORT = (_JSON, _CAP, _MAX_VERTICES)

# Each command: its help, its epilog and its options, in the order that
# ``--help`` lists them.  ``build_parser`` and ``_read_command_line`` both
# read this table, so each flag, default and choice is written here once.
_COMMAND_LINES = {
    "analyze": ("full report: conditions, lattice, primes, maximals", None, _REPORT),
    "hsets": ("the lattice of hereditary saturated sets", None, _REPORT),
    "primes": ("all prime-ideal descriptors", None, _REPORT),
    "maximals": ("maximal ideals, graded and non-graded families", None, _REPORT),
    "quotient": (
        "quotient graph at an admissible pair (H, S)",
        None,
        (
            _Option(
                "--H",
                "H",
                str,
                "",
                help="comma-separated vertices of H (empty for the zero ideal); "
                "give a list that starts with '-' with '=', as in --H=-1,0",
            ),
            _Option(
                "--S",
                "S",
                str,
                "",
                help="comma-separated breaking vertices kept in S; "
                "give a list that starts with '-' with '=', as in --S=-1,0",
            ),
        ),
    ),
    "check": (
        "check Condition (L) or (K)",
        None,
        (_JSON, _CAP, _Option("--condition", "condition", str, choices=("L", "K"), required=True)),
    ),
    "mul": (
        "multiply two algebra elements",
        "Element grammar (whitespace-tokenised): a term is an optional rational "
        "coefficient, then a real path as edge ids (or one vertex id), then a ghost "
        "path as edge ids each ending in '*'; an optional '|' separates the parts. "
        "Terms are joined by '+' or '-' tokens; '0' alone is the zero element. "
        "Examples: 'u', 'a b', 'a b | c*', 'c*', '2/3 a - b | b*'. Ids containing "
        "whitespace, '|', or a trailing '*', and ids that look like numbers at the "
        "start of a term, are not addressable.",
        (
            _JSON,
            _Option(
                "--lhs",
                "lhs",
                str,
                required=True,
                help="left factor; give a factor that starts with '-' and holds no space with '=', as in --lhs=-x",
            ),
            _Option(
                "--rhs",
                "rhs",
                str,
                required=True,
                help="right factor; give a factor that starts with '-' and holds no space with '=', as in --rhs=-x",
            ),
        ),
    ),
}


def build_parser():
    """The argparse parser of the command line, built from ``_COMMAND_LINES``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lpaideals",
        description="Ideal structure of the Leavitt path algebra of a directed graph.",
        epilog=(
            "Graph files are JSON: "
            '{"vertices": [...], "edges": [{"id","src","dst"}...], '
            '"omega_bundles": [{"src","dst"}...]} (omega_bundles optional).'
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, epilog, options) in _COMMAND_LINES.items():
        p = sub.add_parser(name, help=help, epilog=epilog)
        p.add_argument("graph", help="path to a graph JSON file")
        for o in options:
            if o.convert is None:
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            else:
                p.add_argument(
                    o.flag,
                    dest=o.dest,
                    type=o.convert,
                    default=o.default,
                    choices=o.choices,
                    required=o.required,
                    help=o.help,
                )
    return parser


# Per command: its options by flag, the namespace of its defaults, and the
# dests that must be given.
_READER = {
    name: (
        {o.flag: o for o in options},
        {"command": name, **{o.dest: o.default for o in options}},
        [o.dest for o in options if o.required],
    )
    for name, (_, _, options) in _COMMAND_LINES.items()
}


_DIGIT_OR_SPACE = frozenset("0123456789 ")


def _read_command_line(argv):
    """The namespace that ``_parser().parse_args(argv)`` gives, for the one
    form of command line read here, else None.

    The form is ``COMMAND GRAPH`` followed only by that command's own
    options, each flag spelled in full, each value its own token, every
    value converted and in its choices, every required option given.  Any
    other argv (help, an abbreviation, ``--flag=value``, ``--``, an
    unknown or missing flag, a flag before the graph, a value that will
    not convert) is left to argparse, whose messages and exit codes stay
    the only ones.  So is a graph path or a value that starts with ``-``,
    unless the value's second character is a digit or a space and it holds
    a space, such as the factor ``-3/2 a b``: argparse reads such a token
    as a value too, as no option of this command line starts with a dash
    and a digit or a space."""
    if len(argv) < 2:
        return None
    reader = _READER.get(argv[0])
    graph = argv[1]
    if reader is None or graph[:1] == "-":
        return None
    options, defaults, required = reader
    values = dict(defaults, graph=graph)
    i, n = 2, len(argv)
    while i < n:
        o = options.get(argv[i])
        if o is None:
            return None
        if o.convert is None:
            values[o.dest] = True
            i += 1
            continue
        if i + 1 == n:
            return None
        value = argv[i + 1]
        if value[:1] == "-" and not (value[1:2] in _DIGIT_OR_SPACE and " " in value):
            return None
        try:
            value = o.convert(value)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
        i += 2
    for dest in required:
        if values[dest] is None:
            return None
    return types.SimpleNamespace(**values)


def _load_graph(path: str) -> DirectedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read graph file: {exc}") from None
    return parse_graph(text)


def _emit_json(doc) -> None:
    """Print ``doc`` as the stdlib's ``json.dumps`` does with sorted keys
    and an indent of 2, byte for byte.

    The stdlib turns to its pure-Python encoder when it indents; this
    writer builds the same text with the C string encoder."""
    print(_json_text(doc, "\n"))


def _json_text(doc, newline: str) -> str:
    """Indented JSON of ``doc`` (dicts with str keys, lists, tuples, str,
    int, bool, None); ``newline`` is a line break plus the indentation of
    the line that ``doc`` starts on.  String items are encoded in place
    rather than by a recursive call, the bulk of every document."""
    if isinstance(doc, dict):
        inner = newline + "  "
        items = [
            _encode_str(key) + ": " + (_encode_str(v) if type(v) is str else _json_text(v, inner))
            for key, v in sorted(doc.items())
        ]
        return _json_block(items, newline, "{}")
    if isinstance(doc, (list, tuple)):
        inner = newline + "  "
        items = [_encode_str(v) if type(v) is str else _json_text(v, inner) for v in doc]
        return _json_block(items, newline, "[]")
    if isinstance(doc, str):
        return _encode_str(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _lattice_json(lat, newline: str) -> str:
    """The JSON of ``lat.to_json_dict()`` on a line that starts at
    ``newline``, byte for byte what ``_json_text`` gives: each vertex id
    is encoded once, and each set's framed text is joined from the texts
    of its mask's halves (``_Masks.texts``).  The coatoms are read
    through ``lattice.maximal_proper_elements``, the name that
    ``to_json_dict`` reads."""
    from lpaideals.lattice import maximal_proper_elements

    encoded = {v: _encode_str(v) for v in lat.graph.vertices}.__getitem__
    item, member, inner = newline + "    ", newline + "      ", newline + "  "
    opened, between, closed = "[" + member, "," + member, item + "]"
    coatoms = [
        opened + between.join(map(encoded, sorted(s))) + closed if s else "[]"
        for s in maximal_proper_elements(lat)
    ]
    sets = lat.graph._masks.texts(lat._closed, encoded, between, opened, closed, "[]")
    sections = ['"maximal_proper": ' + _json_block(coatoms, inner, "[]"), '"sets": ' + _json_block(sets, inner, "[]")]
    return _json_block(sections, newline, "{}")


def _fmt_set(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _fmt_pair(pair) -> str:
    return f"I({_fmt_set(pair.H)}, {_fmt_set(pair.S)})"


def _fmt_descriptors(descriptors) -> list[str]:
    """The text of each prime or maximal ideal descriptor."""
    from lpaideals.ideals import GradedIdeal

    return [
        _fmt_pair(d.pair)
        if isinstance(d, GradedIdeal)
        else f"I({_fmt_set(d.H)}, B_H) + <f({' '.join(d.cycle.edges)})>, {d.poly}"
        for d in descriptors
    ]


def _fmt_condition(name: str, report) -> str:
    if report.holds:
        return f"condition ({name}): holds"
    return f"condition ({name}): fails, witness cycle [{' '.join(report.witness.edges)}]"


def _split_vertices(g: DirectedGraph, raw: str, flag: str) -> frozenset[str]:
    parts = [p for p in raw.split(",") if p]
    for v in parts:
        if v not in g._out_edges:  # keyed by vertex id: a lookup, not a scan
            raise UsageError(f"{flag}: unknown vertex {v!r}")
    return frozenset(parts)


def cmd_analyze(g: DirectedGraph, args) -> None:
    from lpaideals.cycles import condition_K, condition_L
    from lpaideals.ideals import enumerate_primes, existence_report
    from lpaideals.lattice import enumerate_HE

    lat = enumerate_HE(g, args.cap, args.max_vertices)
    cond_l = condition_L(g)
    cond_k = condition_K(g)
    report = existence_report(g, args.cap, args.max_vertices)
    primes = enumerate_primes(g, args.cap, args.max_vertices)
    if args.json:
        sections = [  # in sorted key order, each written at the indentation of its key
            '"condition_K": ' + _json_text(cond_k.to_json_dict(), "\n  "),
            '"condition_L": ' + _json_text(cond_l.to_json_dict(), "\n  "),
            '"hereditary_saturated": ' + _lattice_json(lat, "\n  "),
            '"maximality": ' + _json_text(report.to_json_dict(), "\n  "),
            '"primes": ' + _json_text([d.to_json_dict() for d in primes], "\n  "),
        ]
        print(_json_block(sections, "\n", "{}"))
        return
    print(
        f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges, "
        f"{len(g.omega_bundles)} omega-bundles"
    )
    print(_fmt_condition("L", cond_l))
    print(_fmt_condition("K", cond_k))
    sets = lat.graph._masks.texts(lat._closed, str, ",", "{", "}", "{}")
    print(f"hereditary saturated sets ({len(sets)}): {', '.join(sets)}")
    _print_coatoms(lat)
    _print_maximality(report)
    _print_primes(primes)


def _print_coatoms(lat) -> None:
    """The ``maximal proper`` line, read through ``lattice.maximal_proper_elements`` at the call."""
    from lpaideals.lattice import maximal_proper_elements

    print("maximal proper: " + (", ".join(_fmt_set(s) for s in maximal_proper_elements(lat)) or "none"))


def _print_primes(primes) -> None:
    print(f"primes ({len(primes)}):")
    for text in _fmt_descriptors(primes):
        print(f"  {text}")


def _print_maximality(report) -> None:
    print(
        "graded maximal ideals: "
        + (", ".join(_fmt_pair(p) for p in report.graded_maximals) or "none")
    )
    families = ", ".join(
        f"({_fmt_set(f.H)}, cycle [{' '.join(f.cycle.edges)}])"
        for f in report.nongraded_maximal_families
    )
    print("non-graded maximal families: " + (families or "none"))
    print(f"exists maximal ideal: {_yn(report.exists_maximal)}")
    print(f"every ideal below a maximal ideal: {_yn(report.every_ideal_below_maximal)}")
    print(f"every maximal ideal graded: {_yn(report.every_maximal_graded)}")
    unique = "none" if report.unique_maximal is None else _fmt_descriptors([report.unique_maximal])[0]
    print(f"unique maximal ideal: {unique}")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_hsets(g: DirectedGraph, args) -> None:
    from lpaideals.lattice import enumerate_HE

    lat = enumerate_HE(g, args.cap, args.max_vertices)
    if args.json:
        print(_lattice_json(lat, "\n"))
        return
    sets = lat.graph._masks.texts(lat._closed, str, ",", "  {", "}\n", "  {}\n")
    print(f"hereditary saturated sets ({len(sets)}):")
    sys.stdout.write("".join(sets))
    _print_coatoms(lat)


def cmd_primes(g: DirectedGraph, args) -> None:
    from lpaideals.ideals import enumerate_primes

    primes = enumerate_primes(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json([d.to_json_dict() for d in primes])
        return
    _print_primes(primes)


def cmd_maximals(g: DirectedGraph, args) -> None:
    from lpaideals.ideals import existence_report

    report = existence_report(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json(report.to_json_dict())
        return
    _print_maximality(report)


def cmd_quotient(g: DirectedGraph, args) -> None:
    from lpaideals.lattice import AdmissiblePair, quotient_graph

    hset = _split_vertices(g, args.H, "--H")
    sset = _split_vertices(g, args.S, "--S")
    try:
        pair = AdmissiblePair(g, hset, sset)
    except GraphError as exc:
        raise UsageError(f"inadmissible pair: {exc}") from None
    try:
        sys.stdout.write(serialize_graph(quotient_graph(g, pair)))
    except GraphError as exc:  # the quotient is empty, or a primed id collides
        raise UsageError(str(exc)) from None


def cmd_check(g: DirectedGraph, args) -> None:
    from lpaideals.cycles import condition_K, condition_L

    report = (condition_L if args.condition == "L" else condition_K)(g)
    if args.json:
        _emit_json(report.to_json_dict())
        return
    print(_fmt_condition(args.condition, report))


def cmd_mul(g: DirectedGraph, args) -> None:
    from lpaideals.algebra import parse_element, render_element

    try:
        lhs = parse_element(g, args.lhs)
        rhs = parse_element(g, args.rhs)
    except GraphError as exc:
        raise UsageError(f"bad element expression: {exc}") from None
    product = lhs * rhs
    if args.json:
        print(_product_json(product))
        return
    print(render_element(product))


class _TermsJSON:
    """The pieces of the ``mul --json`` terms list, each written once for
    ``algebra._term_texts``, which lays them out three per term, the keys
    in sorted order: a head, which opens the term's item with its alpha's
    block (a comma first, which ``_product_json`` drops from the first
    item); a path's ``{"edges", "source"}`` block, the beta's; and a
    coefficient's tail, which closes the item.  The blocks of alpha and
    beta sit at one indentation, so each distinct path's block is encoded
    once."""

    def __init__(self):
        self.blocks: dict[int, str] = {}  # id of a path -> its block

    def head(self, alpha) -> str:
        return ',\n    {\n      "alpha": ' + self.block(alpha) + ',\n      "beta": '

    def block(self, p) -> str:
        text = self.blocks.get(id(p))
        if text is None:
            text = self.blocks[id(p)] = _json_text({"edges": p.edges, "source": p.source}, "\n      ")
        return text

    @staticmethod
    def tail(coeff: str) -> str:
        return ',\n      "coeff": ' + _encode_str(coeff) + "\n    }"


def _product_json(product) -> str:
    """The ``mul --json`` text, byte for byte what ``_json_text`` gives for
    ``{"result": <rendered product>, "terms": [{"coeff": <coeff text>,
    "alpha": <block>, "beta": <block>}, ...]}``.  One text rule
    (``algebra._term_texts``) writes the text form and the terms list."""
    from lpaideals.algebra import _term_texts

    texts, items = _term_texts(product.terms, _TermsJSON())
    if not items:
        return '{\n  "result": "0",\n  "terms": []\n}'
    # One join, not ``graph._json_block``: the text runs to megabytes (2.6-2.7 MB on
    # the benchmark's products), and each nested frame would copy it once more.
    items[0] = '{\n  "result": ' + _encode_str("".join(texts)) + ',\n  "terms": [' + items[0][1:]
    items.append("\n  ]\n}")
    return "".join(items)


_COMMANDS = {
    "analyze": cmd_analyze,
    "hsets": cmd_hsets,
    "primes": cmd_primes,
    "maximals": cmd_maximals,
    "quotient": cmd_quotient,
    "check": cmd_check,
    "mul": cmd_mul,
}


def main(argv=None) -> int:
    # The cyclic garbage collector stays off for the command.  What a
    # command builds is freed by reference counting, so a collection
    # frees next to nothing and only rescans the young objects.  The one
    # command that allocates enough to trigger many is mul: a product of
    # two ~300-term elements ran about 60 collections and took about
    # 10 % more CPU time with the collector on.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull, so that the
        # interpreter's final flush of what is left stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if enabled:
            gc.enable()


@functools.cache
def _parser():
    """The parser, built on the first command line that ``_read_command_line``
    leaves to it rather than at import, and then reused: parsing leaves no
    state in it."""
    return build_parser()


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_command_line(argv)
    if args is None:
        args = _parser().parse_args(argv)
    for attr, flag in (("cap", "--cap"), ("max_vertices", "--max-vertices")):
        if getattr(args, attr, 1) < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    try:
        g = _load_graph(args.graph)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](g, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
