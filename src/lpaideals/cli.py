"""Command-line front end.

Exit codes: 0 success, 1 invalid graph input, 2 bad arguments,
3 resource cap exceeded, 141 standard output closed by its reader (as
under ``| head``; the status a shell reports for SIGPIPE).  With --json,
output is canonical JSON that is byte-identical across runs on
identical input.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from . import algebra
from .cycles import condition_K, condition_L
from .graph import DEFAULT_CAP, DirectedGraph, GraphError, ResourceCapError, parse_graph, serialize_graph
from .ideals import GradedIdeal, enumerate_primes, existence_report
from .lattice import (
    MAX_EXACT_VERTICES,
    AdmissiblePair,
    enumerate_HE,
    maximal_proper_elements,
    quotient_graph,
)


class UsageError(Exception):
    """A bad argument discovered after argparse (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
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

    def command(name, help, flags=("json", "cap", "max_vertices"), **kwargs):
        """A subcommand with its graph argument and the flags it reads."""
        p = sub.add_parser(name, help=help, **kwargs)
        p.add_argument("graph", help="path to a graph JSON file")
        if "json" in flags:
            p.add_argument("--json", action="store_true", help="emit canonical JSON")
        if "cap" in flags:
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_CAP,
                help="resource cap for cycle and lattice enumeration (default %(default)s)",
            )
        if "max_vertices" in flags:
            p.add_argument(
                "--max-vertices",
                type=int,
                default=MAX_EXACT_VERTICES,
                help="refuse exact lattice enumeration above this many vertices (default %(default)s)",
            )
        return p

    command("analyze", "full report: conditions, lattice, primes, maximals")
    command("hsets", "the lattice of hereditary saturated sets")
    command("primes", "all prime-ideal descriptors")
    command("maximals", "maximal ideals, graded and non-graded families")

    quot = command("quotient", "quotient graph at an admissible pair (H, S)", flags=())
    quot.add_argument("--H", default="", help="comma-separated vertices of H (empty for the zero ideal)")
    quot.add_argument("--S", default="", help="comma-separated breaking vertices kept in S")

    check = command("check", "check Condition (L) or (K)", flags=("json", "cap"))
    check.add_argument("--condition", choices=("L", "K"), required=True)

    mul = command(
        "mul",
        "multiply two algebra elements",
        flags=("json",),
        epilog=(
            "Element grammar (whitespace-tokenised): a term is an optional rational "
            "coefficient, then a real path as edge ids (or one vertex id), then a ghost "
            "path as edge ids each ending in '*'; an optional '|' separates the parts. "
            "Terms are joined by '+' or '-' tokens; '0' alone is the zero element. "
            "Examples: 'u', 'a b', 'a b | c*', 'c*', '2/3 a - b | b*'. Ids containing "
            "whitespace, '|', or a trailing '*', and ids that look like numbers at the "
            "start of a term, are not addressable."
        ),
    )
    mul.add_argument("--lhs", required=True, help="left factor")
    mul.add_argument("--rhs", required=True, help="right factor")
    return parser


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
        if not doc:
            return "{}"
        inner = newline + "  "
        items = [
            _encode_str(key) + ": " + (_encode_str(v) if type(v) is str else _json_text(v, inner))
            for key, v in sorted(doc.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = newline + "  "
        items = [_encode_str(v) if type(v) is str else _json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
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


def _fmt_set(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _fmt_pair(pair: AdmissiblePair) -> str:
    return f"I({_fmt_set(pair.H)}, {_fmt_set(pair.S)})"


def _fmt_descriptor(d) -> str:
    if isinstance(d, GradedIdeal):
        return _fmt_pair(d.pair)
    return f"I({_fmt_set(d.H)}, B_H) + <f({' '.join(d.cycle.edges)})>, {d.poly}"


def _fmt_condition(name: str, report) -> str:
    if report.holds:
        return f"condition ({name}): holds"
    return f"condition ({name}): fails, witness cycle [{' '.join(report.witness.edges)}]"


def _split_vertices(g: DirectedGraph, raw: str, flag: str) -> frozenset[str]:
    if not raw:
        return frozenset()
    parts = [p for p in raw.split(",") if p]
    for v in parts:
        if v not in g.vertices:
            raise UsageError(f"{flag}: unknown vertex {v!r}")
    return frozenset(parts)


def cmd_analyze(g: DirectedGraph, args) -> None:
    lat = enumerate_HE(g, args.cap, args.max_vertices)
    cond_l = condition_L(g, args.cap)
    cond_k = condition_K(g, args.cap)
    report = existence_report(g, args.cap, args.max_vertices)
    primes = enumerate_primes(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json(
            {
                "condition_L": cond_l.to_json_dict(),
                "condition_K": cond_k.to_json_dict(),
                "hereditary_saturated": lat.to_json_dict(),
                "maximality": report.to_json_dict(),
                "primes": [d.to_json_dict() for d in primes],
            }
        )
        return
    print(
        f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges, "
        f"{len(g.omega_bundles)} omega-bundles"
    )
    print(_fmt_condition("L", cond_l))
    print(_fmt_condition("K", cond_k))
    sets = ", ".join(_fmt_set(s) for s in lat.sets)
    print(f"hereditary saturated sets ({len(lat.sets)}): {sets}")
    print(
        "maximal proper: "
        + (", ".join(_fmt_set(s) for s in maximal_proper_elements(lat)) or "none")
    )
    _print_maximality(report)
    print(f"primes ({len(primes)}):")
    for d in primes:
        print(f"  {_fmt_descriptor(d)}")


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
    unique = "none" if report.unique_maximal is None else _fmt_descriptor(report.unique_maximal)
    print(f"unique maximal ideal: {unique}")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_hsets(g: DirectedGraph, args) -> None:
    lat = enumerate_HE(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json(lat.to_json_dict())
        return
    print(f"hereditary saturated sets ({len(lat.sets)}):")
    for s in lat.sets:
        print(f"  {_fmt_set(s)}")
    print(
        "maximal proper: "
        + (", ".join(_fmt_set(s) for s in maximal_proper_elements(lat)) or "none")
    )


def cmd_primes(g: DirectedGraph, args) -> None:
    primes = enumerate_primes(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json([d.to_json_dict() for d in primes])
        return
    print(f"primes ({len(primes)}):")
    for d in primes:
        print(f"  {_fmt_descriptor(d)}")


def cmd_maximals(g: DirectedGraph, args) -> None:
    report = existence_report(g, args.cap, args.max_vertices)
    if args.json:
        _emit_json(report.to_json_dict())
        return
    _print_maximality(report)


def cmd_quotient(g: DirectedGraph, args) -> None:
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
    report = (condition_L if args.condition == "L" else condition_K)(g, args.cap)
    if args.json:
        _emit_json(report.to_json_dict())
        return
    print(_fmt_condition(args.condition, report))


def cmd_mul(g: DirectedGraph, args) -> None:
    try:
        lhs = algebra.parse_element(g, args.lhs)
        rhs = algebra.parse_element(g, args.rhs)
    except GraphError as exc:
        raise UsageError(f"bad element expression: {exc}") from None
    product = lhs * rhs
    if args.json:
        print(_product_json(product))
        return
    print(algebra.render_element(product))


# One entry of the "terms" list of ``mul --json``: alpha, beta, coeff.
_TERM_JSON = '{\n      "alpha": %s,\n      "beta": %s,\n      "coeff": %s\n    }'


class _PathBlocks(dict):
    """Path -> its ``{"edges", "source"}`` block in ``mul --json``, written
    on first lookup.  The blocks of alpha and beta sit at one indentation."""

    def __missing__(self, p):
        text = self[p] = _json_text({"edges": p.edges, "source": p.source}, "\n      ")
        return text


def _product_json(product) -> str:
    """The ``mul --json`` text, byte for byte what ``_json_text`` gives for
    ``{"result": <rendered product>, "terms": [{"coeff": str(coeff),
    "alpha": <block>, "beta": <block>}, ...]}``: each term fills one
    template, and each distinct path's block is written once."""
    result = _encode_str(algebra.render_element(product))
    if not product.terms:
        return '{\n  "result": ' + result + ',\n  "terms": []\n}'
    blocks = _PathBlocks()
    terms = [_TERM_JSON % (blocks[m.alpha], blocks[m.beta], _encode_str(str(m.coeff))) for m in product.terms]
    return '{\n  "result": ' + result + ',\n  "terms": [\n    ' + ",\n    ".join(terms) + "\n  ]\n}"


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
    # The cyclic garbage collector stays off for the command: it builds
    # tens of thousands of acyclic containers (the frozensets of H_E,
    # cycles, admissible pairs), all freed by reference counting, so a
    # collection during the command frees next to nothing and only
    # rescans the young ones.
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
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command rather than at import and
    then reused: parsing leaves no state in it."""
    return build_parser()


def _run(argv) -> int:
    args = _parser().parse_args(argv)
    if any(getattr(args, flag, 1) < 1 for flag in ("cap", "max_vertices")):
        print("error: --cap and --max-vertices must be positive", file=sys.stderr)
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
