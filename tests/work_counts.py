"""Work counts of the report commands: the Python-level calls that cProfile counts.

Runs ``analyze``, ``hsets``, ``primes`` and ``maximals`` with ``--json``
in one process (``cli.main``) on A_12 (twelve vertices with two loops
each), K_9 (``clique_with_loop(9)``) and ``sparse_graph(200)`` (with
``--max-vertices 1000``).  Each command runs once to warm up and once
under ``cProfile``, and the line printed for it is the sum of the call
counts over the ``Profile.getstats()`` entries of Python code objects.
Calls into C builtins are left out: cProfile counts some of them (``vars``,
``dict.update``, a named tuple's ``_make``) but not slot wrappers such as
``object.__setattr__``, so whether a field write counted would depend on
how it is written.  pstats totals are not used: pstats keys its table by
(file, first line, name), so the generated ``__init__`` of every
dataclass shares one key and all but one of them drop out.

Run from the repository root:

    PYTHONPATH=src python tests/work_counts.py
"""

import cProfile
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

from conftest import clique_with_loop, sparse_graph
from test_golden import loop_antichain
from lpaideals import cli, serialize_graph

GRAPHS = {
    "A_12": (loop_antichain(12), []),
    "K_9": (clique_with_loop(9), []),
    "sparse_graph(200)": (sparse_graph(200), ["--max-vertices", "1000"]),
}
COMMANDS = ("analyze", "hsets", "primes", "maximals")


def calls(argv: list[str]) -> int:
    """The Python-level calls of one ``cli.main(argv)``, summed per code object."""
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        profiler.enable()
        code = cli.main(argv)
        profiler.disable()
    assert code == 0
    return sum(entry.callcount for entry in profiler.getstats() if isinstance(entry.code, types.CodeType))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, (g, flags) in GRAPHS.items():
            path = Path(tmp) / "graph.json"
            path.write_text(serialize_graph(g), encoding="utf-8")
            for command in COMMANDS:
                print(f"{name} {command} --json: {calls([command, str(path), '--json', *flags])}")


if __name__ == "__main__":
    sys.exit(main())
