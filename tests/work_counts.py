"""Work counts of the report commands: the Python-level calls they make.

Runs ``analyze``, ``hsets``, ``primes`` and ``maximals`` with ``--json``
in one process (``cli.main``) on A_12 (twelve vertices with two loops
each), K_9 (``clique_with_loop(9)``) and ``sparse_graph(200)`` (with
``--max-vertices 1000``).  Each command runs once to warm up and once
under a ``sys.setprofile`` hook, and the line printed for it is the
number of ``"call"`` events, each a Python function entered.  A
generator or a generator expression counts once, on its first entry:
the hook fires again each time one resumes, so its frames are kept in a
set and not counted again, and the count reads the calls made, not how
a loop is written.  Calls into C builtins (the
``"c_call"`` events) are left out, so whether a field write counts does
not depend on how it is written (``object.__setattr__`` or
``vars(obj).update``).

Run from the repository root:

    PYTHONPATH=src python tests/work_counts.py
"""

import contextlib
import inspect
import io
import sys
import tempfile
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
    """The Python functions that one ``cli.main(argv)`` enters, each
    generator counted once."""
    count, started = 0, set()

    def hook(frame, event, arg):
        nonlocal count
        if event != "call":
            return
        if frame.f_code.co_flags & inspect.CO_GENERATOR:
            if frame in started:
                return
            started.add(frame)
        count += 1

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        sys.setprofile(hook)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0
    return count


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, (g, flags) in GRAPHS.items():
            path = Path(tmp) / "graph.json"
            path.write_text(serialize_graph(g), encoding="utf-8")
            for command in COMMANDS:
                print(f"{name} {command} --json: {calls([command, str(path), '--json', *flags])}")


if __name__ == "__main__":
    sys.exit(main())
