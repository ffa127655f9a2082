"""Closed-loop benchmark of the lpaideals CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller, one thread, one process:
each op (an in-process ``lpaideals.cli.main([...])`` call with stdout
captured, or a library call) starts only after the previous one
returned, and its answer is checked (``verify.py``) outside the timed
interval.  A wrong answer, or an exit code other than 0 and 3, aborts
with exit code 1 and no result.  A refusal (exit 3, a resource cap) is
not a failure: it lowers ``answered_ratio``.

``--seconds`` sets the amount of work: the number of whole passes over
the workload's ops that take that long at the reference speed (at least
one).  A fixed amount of work keeps the op mix, and so every median,
comparable between runs.  Times are normalised to the reference speed
(see ``speed.py``); raw times are on the diagnostics line.  The process
re-executes itself once with PYTHONHASHSEED fixed (see ``_pin_hash_seed``).

Standard output ends with two JSON lines: ``{"diagnostics": ...}`` and
the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, the median latency of
each command among them; the op-latency tail and the ``idempotent``
median are on the diagnostics line under ``ungated``.  With ``--trace 1``
the workload runs once untraced and once traced, and the metrics are the
per-layer ones from ``tracer.py`` plus ``trace.overhead_ratio``; spans
are written to ``.perfbench_work/trace-<workload>-<seed>.jsonl``.
``--smoke`` runs every workload at tiny sizes, for the benchmark's own
tests (``test_perfbench.py``).
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("lattice-antichain", "cycle-dense", "corpus-mix", "algebra-products")
SETUP_REPEATS = 3
STARTUP_REPEATS = 15
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99, 90, 50)
# Timed and checked like the others, but printed on the diagnostics line
# rather than gated: on a shared 2-core VM the run medians of this
# sub-millisecond call fell into two modes about 1.7x apart, whatever the
# normalisation, so their spread over seeds exceeded the largest bound.
UNGATED_COMMANDS = ("idempotent",)
REFUSED = 3
HASH_SEED = "0"


def _import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path; refuse
    to run without them rather than pick up an installed copy."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "lpaideals" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: {ROOT} is not an lpaideals checkout (src/ or tests/ missing)")
    sys.path[:0] = [str(src), str(tests)]


@dataclass
class Record:
    command: str
    norm_s: float
    raw_s: float
    answered: bool
    sizes: dict


def execute(op):
    """Run one op; return (exit code, stdout text or return value)."""
    from lpaideals import cli

    if op.argv is None:
        return 0, op.call()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def run_ops(ops, clock, tracer=None) -> list[Record]:
    from verify import WrongAnswer

    records = []
    for op in ops:
        # Start every op from the same collector state: collect the last
        # op's cyclic garbage, then keep the benchmark's own objects (inputs,
        # answers, records) out of the collector's view, so that the
        # program's collections cost what they would in a process of its own.
        gc.collect()
        gc.freeze()
        traced = {}
        if tracer is not None:
            tracer.begin_op(op.command)
            cycles_before = tracer.sizes["cycles_found"]
        (rc, out), norm, raw = clock.measure(lambda: execute(op))
        if tracer is not None:
            tracer.end_op()
            traced["cycles"] = tracer.sizes["cycles_found"] - cycles_before
            if op.argv is not None:
                tracer.sizes["output_bytes"] += len(out.encode())
        if rc == REFUSED:
            records.append(Record(op.command, norm, raw, False, traced))
            continue
        if rc != 0:
            raise WrongAnswer(f"{op.command} {op.argv}: exit code {rc}")
        try:
            sizes = op.check(out)
        except (KeyError, TypeError, ValueError) as exc:
            raise WrongAnswer(f"{op.command} {op.argv}: malformed output ({exc!r})") from None
        records.append(Record(op.command, norm, raw, True, {**sizes, **traced}))
    return records


def setup(name, seed, workdir, clock, smoke):
    """Generate the inputs and run the warm-up ops (checked, untimed)."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(name, seed, str(workdir), smoke)
    run_ops(wl.warmup_ops, clock)
    return wl


def measure_startup(workdir, clock, repeats) -> tuple[float, float]:
    """Median normalised and raw seconds of a cold
    ``python -m lpaideals check --condition L`` on a one-vertex graph."""
    from verify import WrongAnswer

    path = workdir / "startup.json"
    path.write_text(json.dumps({"vertices": ["x"], "edges": []}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "lpaideals", "check", str(path), "--condition", "L"]
    norms, raws = [], []
    clock.pause()
    try:
        for _ in range(repeats):
            first = len(clock.samples)
            for _ in range(3):
                clock.sample()
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
            raw = time.perf_counter() - start
            for _ in range(3):
                clock.sample()
            if proc.returncode != 0 or proc.stdout != "condition (L): holds\n":
                raise WrongAnswer(f"startup probe: exit {proc.returncode}, stdout {proc.stdout!r}")
            norms.append(clock.normalise(raw, first))
            raws.append(raw)
    finally:
        clock.resume()
    return statistics.median(norms), statistics.median(raws)


def tail(values) -> tuple[float, float, int]:
    """The highest of the percentiles TAIL_PERCENTILES that has at least
    TAIL_BEYOND samples beyond it: (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            break
    rank = max(math.ceil(p / 100 * n) - 1, 0)
    return ordered[rank], p, n


def _median_by_command(records, attr) -> dict:
    by: dict = {}
    for r in records:
        if r.answered:
            by.setdefault(r.command, []).append(getattr(r, attr))
    return {c: statistics.median(v) for c, v in by.items()}


def end_to_end(records, setup_s, startup_s, commands) -> dict:
    answered = [r for r in records if r.answered]
    medians = _median_by_command(records, "norm_s")
    missing = [c for c in commands if c not in medians]
    if missing:
        raise RuntimeError(f"no answered op for {missing}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "startup_ms": (startup_s * 1e3, "ms"),
        "ops_per_s": (len(answered) / sum(r.norm_s for r in records), "1/s"),
        "answered_ratio": (len(answered) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for c in commands:
        if c not in UNGATED_COMMANDS:
            metrics[f"{c}_ms"] = (medians[c] * 1e3, "ms")
    return metrics


LAYER_CALLS_AND_SELF = (
    "graph.parse_graph",
    "graph.descendants",
    "graph.m_of",
    "lattice.enumerate_HE",
    "lattice.hs_closure",
    "lattice.maximal_proper_elements",
    "lattice.breaking_vertices",
    "lattice.quotient_graph",
    "cycles.simple_cycles",
    "cycles.cycles_without_K",
    "cycles.condition_L",
    "cycles.condition_K",
    "algebra.mul",
    "algebra.eq",
    "cli.main",
)
LAYER_SELF_ONLY = (
    "ideals.enumerate_primes",
    "ideals.existence_report",
    "ideals.maximal_graded_ideals",
    "ideals.maximal_nongraded_families",
    "algebra.parse_element",
    "algebra.render_element",
)


def per_layer(tracer, overhead: float) -> dict:
    metrics = {}
    for name in LAYER_CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3, "ms")
    for name in LAYER_SELF_ONLY:
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3, "ms")
    sizes = tracer.sizes
    metrics.update(
        {
            "ideals.NonGradedFamily.calls": (tracer.calls["ideals.NonGradedFamily"], "count"),
            "ideals.primes_found": (sizes["primes_found"], "count"),
            "lattice.he_size": (sizes["he_size"], "count"),
            "lattice.closures_per_set": (
                tracer.calls["lattice.hs_closure"] / max(sizes["he_size"], 1),
                "ratio",
            ),
            "lattice.cap_refusals": (tracer.refusals["lattice.enumerate_HE"], "count"),
            "cycles.cycles_found": (sizes["cycles_found"], "count"),
            "cycles.enumerations_per_op": (
                tracer.calls["cycles.simple_cycles"] / max(tracer.ops_calling["cycles.simple_cycles"], 1),
                "ratio",
            ),
            "cycles.cap_refusals": (tracer.refusals["cycles.simple_cycles"], "count"),
            "algebra.terms_out": (sizes["terms_out"], "count"),
            "cli.output_bytes": (sizes["output_bytes"], "bytes"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    return metrics


def result_sizes(records) -> dict:
    """Mean sizes per op, by command: |H_E|, primes and product terms
    from the answers, and (traced runs) the simple cycles enumerated."""
    sums: dict = {}
    counts: dict = {}
    for r in records:
        for key, value in r.sizes.items():
            sums.setdefault(r.command, Counter())[key] += value
            counts.setdefault(r.command, Counter())[key] += 1
    return {c: {k: v / counts[c][k] for k, v in s.items()} for c, s in sorted(sums.items())}


def run(args, workdir) -> tuple[dict, dict]:
    from speed import REFERENCE_S, SpeedClock
    from workloads import COMMANDS  # imports the program: its cost is part of set-up

    import_raw = time.perf_counter() - _PROCESS_START
    with SpeedClock() as clock:
        setups_norm, setups_raw = [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            first = len(clock.samples)
            start = time.perf_counter()
            wl = setup(args.workload, args.seed, workdir, clock, args.smoke)
            raw = time.perf_counter() - start
            setups_norm.append(clock.normalise(raw, first))
            setups_raw.append(raw)
        setup_s = clock.normalise(import_raw, 0) + statistics.median(setups_norm)
        startup_s, startup_raw = measure_startup(workdir, clock, 1 if args.smoke else STARTUP_REPEATS)
        passes = max(1, round(args.seconds / wl.nominal_pass_s))
        ops = wl.pass_ops * passes
        records = run_ops(ops, clock)
        diagnostics = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": passes,
            "ops_per_pass": len(wl.pass_ops),
            "calibration": {
                "samples": len(clock.samples),
                "median_ms": clock.median_sample() * 1e3,
                "reference_ms": REFERENCE_S * 1e3,
            },
            "raw": {
                "setup_s": import_raw + statistics.median(setups_raw),
                "startup_ms": startup_raw * 1e3,
                "op_tail_ms": tail(r.raw_s for r in records)[0] * 1e3,
                **{f"{c}_ms": v * 1e3 for c, v in _median_by_command(records, "raw_s").items()},
            },
            "ungated": {
                "op_tail": dict(zip(("ms", "percentile", "samples"), tail(r.norm_s * 1e3 for r in records))),
                **{
                    f"{c}_ms": v * 1e3
                    for c, v in _median_by_command(records, "norm_s").items()
                    if c in UNGATED_COMMANDS
                },
            },
            "samples": dict(Counter(r.command for r in records if r.answered)),
            "refused": dict(Counter(r.command for r in records if not r.answered)),
            "result_sizes": result_sizes(records),
            "input_shares": wl.shares,
        }
        if not args.trace:
            metrics = end_to_end(records, setup_s, startup_s, COMMANDS)
            return diagnostics, _result(records, metrics)

        from tracer import Tracer

        with Tracer() as tracer:
            traced = run_ops(ops, clock, tracer)
        overhead = sum(r.norm_s for r in traced) / sum(r.norm_s for r in records)
        op_counts = Counter(r.command for r in traced)
        diagnostics["calls_per_op"] = tracer.calls_per_command(op_counts)
        diagnostics["result_sizes"] = result_sizes(traced)
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        return diagnostics, _result(traced, per_layer(tracer, overhead))


def _result(records, metrics) -> dict:
    return {
        "correct": True,
        "attempted": len(records),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; for the benchmark's own test")
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-execute with a fixed PYTHONHASHSEED, so that string hashing, and
    with it set and dict layout, is the same in every run; drawn afresh
    per process it moved the same op's time by up to a third between runs."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))


def main(argv=None) -> int:
    args = parse_args(argv)
    if argv is None:
        _pin_hash_seed()
    _import_program()
    from verify import WrongAnswer

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        diagnostics, result = run(args, workdir)
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
