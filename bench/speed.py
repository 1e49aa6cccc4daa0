"""How fast the host runs, sampled while a workload runs.

The machine the benchmark was built on runs the same code up to 1.7 times
slower for seconds to minutes at a time.  `SpeedProbe` times a small fixed
computation of the benchmark's own (`chunk`, no charcore code) every
`TICK_S` seconds of wall time from a SIGALRM handler, so its samples cover
the timed region evenly; the run scales the workload's times by the mean
sample.  The handler's own time is kept in `spent`, so callers subtract it
from what they measure.
"""

from __future__ import annotations

import gc
import random
import signal
from math import factorial, prod
from time import perf_counter

TICK_S = 0.02
CHUNK_N = 60
CALIBRATION_CHUNKS = 100


def _fixed_partitions(count: int = 24) -> list[tuple[int, ...]]:
    rng = random.Random(1)
    out = []
    for _ in range(count):
        parts, m = [], CHUNK_N
        while m:
            part = rng.randint(1, m)
            parts.append(part)
            m -= part
        out.append(tuple(sorted(parts, reverse=True)))
    return out


CHUNK_INPUT = _fixed_partitions()


def chunk() -> int:
    """A fixed computation with charcore's mix of small tuples, lists, dicts and
    big integers: the hook-length degrees of `CHUNK_INPUT`.  Never change it:
    the benchmark's reference speed is this computation's time."""
    tally: dict[tuple, int] = {}
    for lam in CHUNK_INPUT:
        conj = [sum(1 for row in lam if row > c) for c in range(lam[0])]
        hooks = [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]
        tally[lam] = factorial(CHUNK_N) // prod(hooks)
    return len(tally)


def timed_chunk() -> float:
    """Seconds for one `chunk`, with the cycle collector off, so the objects a
    workload left behind do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    chunk()
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def calibrate() -> float:
    """Mean seconds per chunk, over `CALIBRATION_CHUNKS` chunks in a row."""
    return sum(timed_chunk() for _ in range(CALIBRATION_CHUNKS)) / CALIBRATION_CHUNKS


class SpeedProbe:
    """Context manager: samples `timed_chunk` every `TICK_S` seconds while open."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler so far

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.samples.append(timed_chunk())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_s(self) -> float:
        """Mean seconds per chunk while the probe was open."""
        return sum(self.samples) / len(self.samples) if self.samples else calibrate()
