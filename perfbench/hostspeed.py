"""Host speed sampling, so that timings survive a host whose speed drifts.

On a shared virtual machine the same work can take twice as long a minute
later: on the 2-vCPU Xeon VM where the benchmark was defined, a fixed
pure-Python loop took between 0.22 s and 0.41 s within 90 s, with CPU time
tracking wall time.  `Sampler` runs a short fixed loop before
and after the measured region and every PERIOD_S inside it (from a
SIGALRM timer, so it also samples inside a single long call).  `scaled`
turns a measured interval into seconds at the reference speed REF_S: the
interval, minus the sampling loops that ran inside it, times REF_S over the
median loop time around it.  Raw times are reported next to scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

LOOP_ITERATIONS = 20_000
REF_S = 0.00175  # median loop time on the machine the benchmark was defined on
PERIOD_S = 0.1


def loop_time() -> float:
    t = perf_counter()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s = (s * 31 + i) % 1000003
    return perf_counter() - t


def factor(samples: int = 15) -> float:
    """REF_S over the median of a few loops run now."""
    return REF_S / statistics.median(loop_time() for _ in range(samples))


class Sampler:
    """Context manager sampling the loop time while the body runs, or with
    periodic=False only before and after it."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, *_) -> None:
        self.starts.append(perf_counter())
        self.times.append(loop_time())

    def __enter__(self) -> "Sampler":
        for _ in range(5):
            self._sample()
        if self.periodic:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self._sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of sampling loops that started inside [t0, t1]."""
        return sum(self.times[bisect_left(self.starts, t0):bisect_left(self.starts, t1)])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        if not self.periodic:
            return (t1 - t0) * REF_S / statistics.median(self.times)
        busy = self.busy(t0, t1)
        lo = bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect_right(self.starts, t1 + PERIOD_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo, 1), len(self.starts)) - 1
            hi = lo + 1
        return (t1 - t0 - busy) * REF_S / statistics.median(self.times[lo:hi])
