"""Machine-speed normalisation for the benchmark's timings.

The benchmark runs on shared machines whose speed swings by up to 1.7x
within seconds: on a 2-core shared VM a fixed pure-Python loop took
anywhere from 24 ms to 77 ms inside one 90-second window, and the same
``hsets`` call on ``A_12`` took 0.64-1.29 s.  Timings taken between
operations do not track those swings, so ``SpeedClock`` samples the
machine's speed *during* each timed interval: an interval timer
interrupts the running code every ``SAMPLE_INTERVAL_S`` and times a fixed
reference kernel (``calibrate``).  Each interval is then reported as

    (elapsed - time spent in samples) * REFERENCE_S / mean(sample time)

that is, in seconds at a reference speed at which one kernel run takes
``REFERENCE_S``.  An interval too short to contain a sample uses the most
recent samples.  On that VM, over two sets of ten seeds per workload, the
run-to-run spread (interquartile range over median) of the per-command
medians was 0.13 raw and 0.05 normalised (median over commands; largest
0.25 raw, 0.15 normalised).  The kernel is part of the benchmark, not of
the program, so a change to the program cannot move it.  Raw times are
kept beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.0008
SAMPLE_INTERVAL_S = 0.025
RECENT_SAMPLES = 8
KERNEL_ROUNDS = 3


@dataclass(frozen=True)
class _Edge:
    id: str
    src: str
    dst: str


def _reference_graph():
    """Four vertices with two loops each, and the complete digraph K_4."""
    vs = [f"a{i}" for i in range(4)] + [f"k{i}" for i in range(4)]
    edges = [_Edge(f"{f}{i}", f"a{i}", f"a{i}") for i in range(4) for f in "fg"]
    edges += [_Edge(f"e{i}{j}", f"k{i}", f"k{j}") for i in range(4) for j in range(4) if i != j]
    return tuple(vs), {v: [e for e in edges if e.src == v] for v in vs}


_GRAPH = _reference_graph()


def calibrate() -> int:
    """A fixed reference kernel written like the program's own hot code:
    reachability, a join-closed lattice of frozensets of vertex names with
    its maximal elements, recursive simple-cycle search, and Fraction
    arithmetic, on a fixed 8-vertex graph.  Synthetic loops (integer
    arithmetic, frozensets of ints) tracked the program's slowdowns in
    some periods and missed them in others; this kernel tracked them
    better (spread of the run medians of ``primes`` on ``A_12`` over 12
    processes: 0.24 raw, 0.24 with a synthetic loop, 0.08 with this)."""
    total = 0
    for _ in range(KERNEL_ROUNDS):
        total += _kernel(*_GRAPH)
    return total


def _kernel(vertices, out) -> int:
    desc = {}
    for v in vertices:
        seen = {v}
        stack = [v]
        while stack:
            for e in out[stack.pop()]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        desc[v] = frozenset(seen)
    atoms = sorted(set(desc.values()), key=sorted)
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        current = frontier.pop()
        for atom in atoms:
            joined = current | atom
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    full = frozenset(vertices)
    proper = [s for s in found if s != full]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    cycles = 0

    def grow(base, v, visited):
        nonlocal cycles
        for e in out[v]:
            if e.dst == base:
                cycles += 1
            elif e.dst > base and e.dst not in visited:
                visited.add(e.dst)
                grow(base, e.dst, visited)
                visited.remove(e.dst)

    for base in vertices:
        grow(base, base, {base})
    x = Fraction(0)
    for i in range(1, 8):
        x += Fraction(i, i + 1) * Fraction(i + 2, 3)
    return len(found) + len(maximal) + cycles + x.denominator


class SpeedClock:
    """Times intervals and normalises them by in-interval speed samples.

    Use as a context manager: the interval timer runs between ``__enter__``
    and ``__exit__``.  Only for the main thread (it uses SIGALRM).
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stolen = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        calibrate()
        spent = time.perf_counter() - start
        self.samples.append(spent)
        self._stolen += spent
        return spent

    def speed(self, first: int) -> float:
        """Mean sample time since sample index ``first``; for an interval
        shorter than the timer period, the mean of the most recent samples."""
        inside = self.samples[first:] or self.samples[-RECENT_SAMPLES:] or [self.sample()]
        return statistics.fmean(inside)

    def measure(self, fn):
        """Run ``fn()``; return (result, normalised seconds, raw seconds)."""
        first = len(self.samples)
        stolen = self._stolen
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start - (self._stolen - stolen)
        return result, raw * REFERENCE_S / self.speed(first), raw

    def normalise(self, raw: float, first: int) -> float:
        return raw * REFERENCE_S / self.speed(first)

    def median_sample(self) -> float:
        return statistics.median(self.samples)
