"""Golden outputs: the CLI's exact bytes on fixed graphs.

Each file under ``tests/golden/`` is the stdout of one command, named
``<graph>.<command>.json``: ``--json`` output, and the graph JSON that
``quotient`` prints.  The test compares bytes, so any change to
an answer, to key order, to indentation or to string escaping shows up
here.  A change that must alter a golden file lists the diff in
``CHANGES.md``.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    breaking_emitters,
    clique_with_loop,
    cross_bundle_cycle,
    graph,
    mixed_maximals_graph,
    omega_graph,
    unique_maximal_graph,
)
from test_algebra import _monomial_pool
from lpaideals import serialize_graph
from lpaideals.cli import main

GOLDEN = Path(__file__).parent / "golden"


def loop_antichain(n):
    """n vertices with two loops each and no edges between them (|H_E| = 2^n)."""
    vs = [f"a{i}" for i in range(1, n + 1)]
    return graph(vs, [e for i, v in enumerate(vs, 1) for e in ((f"f{i}", v, v), (f"g{i}", v, v))])


def escaped_ids():
    """Ids with non-ASCII characters, a double quote and a backslash.

    ``é`` carries two loops and feeds ``q"t``, whose only edge leads to
    the exitless loop at ``b\\s``; the infinite emitter ``ünï`` has a
    loop, an edge into ``b\\s`` and a bundle to ``日本``, a sink.
    """
    return graph(
        ["é", 'q"t', "b\\s", "ünï", "日本"],
        [
            ("→", "é", "é"),
            ("↺", "é", "é"),
            ("é→q", "é", 'q"t'),
            ('e"', 'q"t', "b\\s"),
            ("e\\", "b\\s", "b\\s"),
            ("ü", "ünï", "ünï"),
            ("ü→b", "ünï", "b\\s"),
        ],
        [("ünï", "日本")],
    )


GRAPHS = {
    "unique_max": unique_maximal_graph,
    "mixed_max": mixed_maximals_graph,
    "omega": omega_graph,
    "antichain4": lambda: loop_antichain(4),
    "k4_loop": lambda: clique_with_loop(4),
    "breakers3": lambda: breaking_emitters(3),
    "escaped": escaped_ids,
    "cross_bundle": cross_bundle_cycle,
}
# The graphs of the goldens: the transcript runs every command on
# ``GRAPHS``, and the antichain of 9 vertices (512 sets) only here.
PINNED_GRAPHS = {**GRAPHS, "antichain9": lambda: loop_antichain(9)}

COMMANDS = {
    "analyze": ["analyze"],
    "hsets": ["hsets"],
    "primes": ["primes"],
    "maximals": ["maximals"],
    "checkL": ["check", "--condition", "L"],
    "checkK": ["check", "--condition", "K"],
}


def _term_text(coeff, alpha, beta):
    tokens = [str(coeff)]
    tokens += alpha.edges if alpha.edges else [alpha.source]
    if beta.edges:
        tokens.append("|")
        tokens += [e + "*" for e in beta.edges]
    return " ".join(tokens)


def spread_element(g, count, step, offset):
    """``count`` distinct monomials spread over the path pool of ``g``, with
    signed fractional coefficients, as text for ``mul``."""
    pool = _monomial_pool(g)
    picks = [pool[(offset + step * i) % len(pool)] for i in range(count)]
    assert len(set(picks)) == count
    coeffs = [Fraction(c, 1 + i % 3) for i, c in enumerate([-3, -2, -1, 1, 2, 3] * count)]
    return " + ".join(_term_text(coeffs[i], a, b) for i, (a, b) in enumerate(picks))


def mul_args(g, count):
    return ["--lhs", spread_element(g, count, 7, 0), "--rhs", spread_element(g, count, 11, 3)]


# The cross-bundle graph (f2) is pinned only where a bundle-aware (K)
# shows: the condition, the primes and the whole report.  The antichain
# of 9 vertices (512 sets) is pinned where H_E is printed: its ids take
# 9 bits, an odd width, wider than any other golden graph's.
PINNED = {"cross_bundle": ("analyze", "primes", "checkK"), "antichain9": ("analyze", "hsets")}
CASES = [(name, cmd, COMMANDS[cmd]) for name in PINNED_GRAPHS for cmd in PINNED.get(name, COMMANDS)]
MUL_CASES = [("unique_max", "mul40", 40), ("escaped", "mul6", 6)]
# ``quotient`` prints ``serialize_graph`` and takes no ``--json``: the
# primed sink v' (omega), two unbroken breakers (breakers3), a primed id
# that needs escaping (escaped), and the zero ideal (k4_loop).
QUOTIENT_CASES = [
    ("omega", ["--H", "w"]),
    ("breakers3", ["--H", "w", "--S", "b1"]),
    ("escaped", ["--H", "日本"]),
    ("k4_loop", []),
]


def _run(tmp_path, capsys, name, argv):
    path = tmp_path / f"{name}.graph.json"
    path.write_text(serialize_graph(PINNED_GRAPHS[name]()), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(tmp_path, capsys, name, argv):
    return _run(tmp_path, capsys, name, [*argv, "--json"])


@pytest.mark.parametrize("name,cmd,argv", CASES, ids=[f"{n}.{c}" for n, c, _ in CASES])
def test_golden_json(tmp_path, capsys, name, cmd, argv):
    code, out, err = _run_json(tmp_path, capsys, name, argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{cmd}.json").read_bytes()


@pytest.mark.parametrize("name,cmd,count", MUL_CASES, ids=[f"{n}.{c}" for n, c, _ in MUL_CASES])
def test_golden_mul_json(tmp_path, capsys, name, cmd, count):
    argv = ["mul", *mul_args(GRAPHS[name](), count)]
    code, out, err = _run_json(tmp_path, capsys, name, argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{cmd}.json").read_bytes()


@pytest.mark.parametrize("name,flags", QUOTIENT_CASES, ids=[n for n, _ in QUOTIENT_CASES])
def test_golden_quotient(tmp_path, capsys, name, flags):
    code, out, err = _run(tmp_path, capsys, name, ["quotient", *flags])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.quotient.json").read_bytes()
