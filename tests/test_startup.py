"""Start-up: each command loads only the layers it runs, a well-formed
command line does not load argparse, and the package resolves its
public names on first use.

Each check runs in a fresh ``python -S`` process, so that the modules it
finds loaded are the ones that process imported, not the test session's.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import graph
from lpaideals import cli, serialize_graph

SRC = str(Path(cli.__file__).resolve().parents[1])

# The layers each command imports besides ``lpaideals``, ``cli`` and ``graph``.
LAYERS = {
    "analyze": {"cycles", "ideals", "lattice"},
    "check": {"cycles"},
    "hsets": {"lattice"},
    "maximals": {"cycles", "ideals", "lattice"},
    "mul": {"algebra"},
    "primes": {"cycles", "ideals", "lattice"},
    "quotient": {"lattice"},
}
FLAGS = {
    "check": ["--condition", "L"],
    "mul": ["--lhs", "u", "--rhs", "a c"],
    "quotient": ["--H", "v"],
}

RUN_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import lpaideals.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = lpaideals.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("lpaideals"))
print(json.dumps([code, loaded, "argparse" in sys.modules]))
"""

PACKAGE_CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lpaideals
report = {"loaded": sorted(m for m in sys.modules if m.startswith("lpaideals"))}
report["all"] = list(lpaideals.__all__)
report["listed"] = sorted(set(lpaideals.__all__) & set(dir(lpaideals)))
namespace = {}
exec("from lpaideals import *", namespace)
report["star"] = sorted(set(namespace) - {"__builtins__"})
report["foreign"] = [
    name
    for name in lpaideals.__all__
    if not getattr(lpaideals, name).__module__.startswith("lpaideals.")
    or getattr(sys.modules[getattr(lpaideals, name).__module__], name) is not getattr(lpaideals, name)
]
report["kept"] = "enumerate_HE" in vars(lpaideals)
try:
    lpaideals.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def _run_fresh(script: str, *args: str):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, SRC, *args], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def _write_graph(tmp_path) -> str:
    path = tmp_path / "graph.json"
    g = graph(["u", "v"], [("a", "u", "v"), ("b", "u", "u"), ("c", "v", "v")])
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", sorted(LAYERS))
def test_each_command_loads_only_its_layers(tmp_path, command):
    """Nor does a well-formed command line load argparse."""
    code, loaded, argparse_loaded = _run_fresh(RUN_COMMAND, command, _write_graph(tmp_path), *FLAGS.get(command, []))
    assert code == 0
    expected = {"lpaideals", "lpaideals.cli", "lpaideals.graph"} | {f"lpaideals.{m}" for m in LAYERS[command]}
    assert set(loaded) == expected
    assert argparse_loaded is False


def test_a_usage_error_loads_argparse(tmp_path):
    """A command line that is not well formed is read by argparse, which
    exits 2 before the command loads its layers."""
    code, loaded, argparse_loaded = _run_fresh(RUN_COMMAND, "check", _write_graph(tmp_path), "--condition", "M")
    assert (code, argparse_loaded) == (2, True)
    assert set(loaded) == {"lpaideals", "lpaideals.cli", "lpaideals.graph"}


def test_the_package_resolves_its_names_on_first_use():
    """A bare import loads no submodule; each of the 49 public names is
    the object its defining module holds, read at each access and not
    kept in the package;
    ``import *`` binds them all, ``dir`` lists them before any is read,
    and an unknown name raises AttributeError."""
    report = _run_fresh(PACKAGE_CONTRACT)
    assert report["loaded"] == ["lpaideals"]
    assert len(set(report["all"])) == len(report["all"]) == 49
    assert report["listed"] == report["star"] == sorted(report["all"])
    assert report["foreign"] == []
    assert report["kept"] is False
    assert report["unknown"] == "module 'lpaideals' has no attribute 'no_such_name'"


def test_a_name_patched_and_restored_on_its_module_reads_as_restored(monkeypatch):
    """The package reads each public name off its module at each access:
    it gives the patched function while the patch holds and the original
    once the patch is undone, never a stale copy of either."""
    import lpaideals
    from lpaideals import algebra

    original = algebra.is_idempotent

    def patched(g, x):
        return False

    monkeypatch.setattr(algebra, "is_idempotent", patched)
    assert lpaideals.is_idempotent is patched
    monkeypatch.undo()
    assert algebra.is_idempotent is original
    assert lpaideals.is_idempotent is original
