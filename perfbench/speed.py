"""Machine-speed probes, so that timings compare across the speed states of a
shared host.

The host this benchmark was tuned on (a 2-core Intel Xeon shared with other
machines) switches between a fast and a slow state, about 1.6x apart, for
stretches from under a second to several minutes; CPU time follows wall time,
so the slowdown is the core's, not time taken away from the process.  A run
of half a minute can sit wholly in one state, and then its medians differ
from another run's by the state, not by the program.

``Speed`` measures the state while the run goes on.  Every ``PERIOD_S`` of
wall time an interval timer interrupts the program, between two Python
bytecodes, and runs a probe: a fixed amount of list building and sorting,
whose duration gives the core's current speed.  Of the probes tried, this
one's slowdown tracked best that of both the peel path (pure Python) and
the HiGHS proposer path.  ``now`` is a work clock that stops while a probe
runs, so probes cost the measured regions nothing.  ``scaled`` turns a
work-clock interval into seconds at the reference speed, at which a probe
takes ``REF_S``: the interval times ``REF_S`` over the mean duration of the
probes within ``2 * PERIOD_S`` of it.  A change to homfill changes the
interval and not the probes, which are benchmark code.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PROBE_ITEMS = 50_000
REF_S = 0.010  # a probe's time on the 2-core Xeon in its usual state
PERIOD_S = 0.2


def _probe_work() -> int:
    xs = [(i * 7919) % 10007 for i in range(PROBE_ITEMS)]
    xs.sort()
    return sum(xs[::3])


class Speed:
    """Periodic probes and the work clock; use as a context manager."""

    def __init__(self):
        self.margin = 2 * PERIOD_S
        self.spent = 0.0  # wall seconds spent in probes so far
        self.times: list[float] = []  # work-clock time of each probe
        self.durations: list[float] = []

    def probe(self, *_) -> None:
        t0 = time.perf_counter()
        _probe_work()
        d = time.perf_counter() - t0
        self.times.append(t0 - self.spent)
        self.durations.append(d)
        self.spent += d

    def now(self) -> float:
        """Wall time less the time spent in probes."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:  # no probe ran in between
                return t - spent

    def __enter__(self) -> Speed:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scaled(self, a: float, b: float) -> float:
        """Work-clock interval [a, b] in seconds at the reference speed, by
        the probes within the margin of it and the nearest one beyond."""
        lo = max(bisect_right(self.times, a - self.margin) - 1, 0)
        hi = min(bisect_left(self.times, b + self.margin), len(self.times) - 1)
        return (b - a) * REF_S / statistics.fmean(self.durations[lo : hi + 1])

    def summary(self) -> dict:
        return {
            "probes": len(self.durations),
            "probe_median_s": statistics.median(self.durations),
            "probe_min_s": min(self.durations),
            "probe_max_s": max(self.durations),
            "probe_s": self.spent,
        }
