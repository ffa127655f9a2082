"""The benchmark's own tests: every workload runs and verifies at tiny
sizes, the declared metrics are the ones printed, a wrong answer aborts
the run, and the tracer catches every call (checked against cProfile).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import cProfile
import json
import pstats
from pathlib import Path

import pytest

import run

run._import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lpaideals import lattice  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def invoke(workload, trace=0):
        argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
        rc = run.main(argv)
        lines = capsys.readouterr().out.splitlines()
        return rc, [json.loads(line) for line in lines]

    return invoke


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_runs_and_verifies(bench, workload):
    rc, (diagnostics, result) = bench(workload)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert diagnostics["diagnostics"]["workload"] == workload


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_per_layer_metrics(bench):
    rc, (diagnostics, result) = bench("lattice-antichain", trace=1)
    assert rc == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    per_op = diagnostics["diagnostics"]["calls_per_op"]
    assert per_op["analyze"]["lattice.enumerate_HE"] == 5


def test_wrong_answer_aborts(bench, monkeypatch):
    monkeypatch.setattr(lattice, "maximal_proper_elements", lambda lat: [])
    rc, lines = bench("lattice-antichain")
    assert rc == 1 and lines == []


def _analyze(tmp_path, g):
    inputs = workloads._Inputs(str(tmp_path), 0)
    return workloads.Op("analyze", None, ["analyze", inputs.write(g), "--json"])


@pytest.mark.parametrize("graph", [workloads.antichain(4), workloads.clique_with_loop(4)])
def test_trace_counts_equal_cprofile_counts(tmp_path, graph):
    op = _analyze(tmp_path, graph)
    run.execute(op)  # warm lazy imports, so both runs below do the same work
    profile = cProfile.Profile()
    profile.runcall(run.execute, op)
    stats = pstats.Stats(profile).stats
    with tracing.Tracer() as tracer:
        run.execute(op)
    checked = 0
    for name, fn in tracing.traced_functions().items():
        code = fn.__code__
        if code.co_filename.startswith("<"):
            continue  # generated dataclass methods share one profile key
        expected = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        assert tracer.calls[name] == expected, name
        checked += expected > 0
    assert checked >= 10
