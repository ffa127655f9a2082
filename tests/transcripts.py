"""The command line's transcript: digests of its output on fixed graphs.

Each line of ``tests/transcripts.txt`` names one graph and gives, for
each command family, the first 16 hex digits of a SHA-256 over the
family's runs in order: each run's arguments after the graph path, exit
code, stdout and stderr.  ``tests/test_transcripts.py`` recomputes the
digests, so a change to any byte the command line writes shows there.

Graphs: the 500-graph acceptance corpus (``random_corpus(500)``), the
golden fixtures (``test_golden.GRAPHS``), f1 and f3.  Families:

- ``analyze``, ``hsets``, ``primes``, ``maximals``: each plain,
  ``--json``, ``--cap 2``, ``--cap |H_E|-1``, ``--cap |H_E|`` and
  ``--max-vertices n-1``.  At the exact cap, ``|H_E|-1`` refuses after
  the walk that the call makes (``enumerate_HE``), and ``|H_E|`` answers;
  it walks at the call and keeps the walk whenever ``|H_E| < 2^t``, t
  the number of closed tails;
- ``check``: ``--condition L`` and ``K``, each plain and ``--json``;
- ``quotient``: at every H in H_E, with S = {}, B_H, and B_H minus its
  last vertex (each distinct S once);
- ``mul``: three pairs of elements drawn by ``random.Random(<graph
  name>)``, each plain and ``--json``.

The runs are in process (``cli.main``).  An intended output change
rewrites the file in the same change.  Run from the repository root:

    PYTHONPATH=src python tests/transcripts.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from conftest import breaker_below_coatom, breaker_below_coatom_with_loop, random_corpus
from test_algebra import _monomial_pool
from test_golden import GRAPHS, _term_text
from lpaideals import breaking_vertices, cli, enumerate_HE, serialize_graph

TRANSCRIPT = Path(__file__).parent / "transcripts.txt"
REPORTS = ("analyze", "hsets", "primes", "maximals")


def graphs() -> dict:
    """The transcript's graphs by name, in the order of its lines."""
    named = {f"corpus{i:03}": g for i, g in enumerate(random_corpus(500, seed=20260809))}
    named.update((name, make()) for name, make in GRAPHS.items())
    named["f1"] = breaker_below_coatom()
    named["f3"] = breaker_below_coatom_with_loop()
    return named


def families(name: str, g) -> dict[str, list[list[str]]]:
    """Each family's runs, as the command and the arguments after the graph path."""
    size = len(enumerate_HE(g).sets)
    runs = {
        command: [[command], [command, "--json"], [command, "--cap", "2"],
                  [command, "--cap", str(size - 1)], [command, "--cap", str(size)],
                  [command, "--max-vertices", str(len(g.vertices) - 1)]]
        for command in REPORTS
    }
    runs["check"] = [["check", "--condition", c, *json] for c in "LK" for json in ([], ["--json"])]
    runs["quotient"] = []
    for hset in enumerate_HE(g).sets:
        b_h = sorted(breaking_vertices(g, hset))
        for sset in dict.fromkeys([(), tuple(b_h), tuple(b_h[:-1])]):
            runs["quotient"].append(["quotient", "--H=" + ",".join(sorted(hset)), "--S=" + ",".join(sset)])
    rng = random.Random(name)
    pool = _monomial_pool(g, max_len=2)
    runs["mul"] = []
    for _ in range(3):
        lhs, rhs = (_element_text(rng, pool) for _ in "lr")
        runs["mul"] += [["mul", "--lhs", lhs, "--rhs", rhs], ["mul", "--lhs", lhs, "--rhs", rhs, "--json"]]
    return runs


def _element_text(rng: random.Random, pool) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        alpha, beta = rng.choice(pool)
        terms.append(_term_text(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)), alpha, beta))
    return " + ".join(terms)


def run(path: str, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main`` on the graph at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], path, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def digest(path: str, runs: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in runs:
        h.update(repr((argv, *run(path, argv))).encode("utf-8"))
    return h.hexdigest()[:16]


def graph_line(name: str, g, tmp: str) -> str:
    """The transcript line of one graph: its name, then family=digest pairs."""
    path = Path(tmp) / "graph.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    return " ".join([name] + [f"{family}={digest(str(path), runs)}" for family, runs in families(name, g).items()])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(graph_line(name, g, tmp) + "\n" for name, g in graphs().items())
    TRANSCRIPT.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
