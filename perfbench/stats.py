"""The reference pace, and summary statistics shared by the benchmark run and
its spread check."""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time
from typing import Iterable, Mapping, Sequence

# The hosts this runs on change speed by up to 2x from one second to the
# next (the same short loop took 11 ms or 19 ms), which no run length
# averages away. So while work is timed, a short fixed pure-Python loop is
# timed every PACE_EVERY_S of wall time, and each time is reported at the
# reference pace: its wall time, less the loops run inside it, times the
# mean of PACE_REF_S / loop time over those loops. A change to pipefarm
# leaves the loop alone, so it moves paced time as it moves wall time.
PACE_LOOPS = 500
PACE_REF_S = 0.00013   # the loop's time at the reference pace
PACE_EVERY_S = 0.01

TAIL_BEYOND = 10   # samples that must lie above a reported tail value
SE_TARGET = 1e-3   # worst-entry stderr the table time is projected to


def pace_s() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(PACE_LOOPS):
        x = i * 0.5
        acc += math.exp(-x * 1e-4) * x / (x + 1.0)
        seen[i & 255] = acc
    return time.perf_counter() - t0


def paced(seconds: float, paces: Sequence[float]) -> float:
    """`seconds` at the reference pace, from the loop times taken over them."""
    return seconds * statistics.mean(PACE_REF_S / p for p in paces)


class Pacer:
    """Times the reference loop every PACE_EVERY_S of wall time while running.

    The loop runs in a SIGALRM handler, which Python calls on the one
    thread between two steps of whatever is being timed; no thread or
    process is started.
    """

    def __init__(self):
        self.at: list[float] = []       # perf_counter when each loop started
        self.took: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.at.append(time.perf_counter())
        self.took.append(pace_s())

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def paced(self, t0: float, t1: float) -> float:
        """The perf_counter interval [t0, t1] at the reference pace.

        An interval too short to hold a loop takes the pace of the last
        loop before it.
        """
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        inside = self.took[i:j]
        return paced(t1 - t0 - sum(inside), inside or self.took[max(j - 1, 0):j] or [pace_s()])


PACER = Pacer()


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    With n samples that is the order statistic that has exactly ten larger
    samples, i.e. the (1 - 10/n) quantile; it needs at least 11 samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return 100.0 * (1.0 - TAIL_BEYOND / n), ordered[n - 1 - TAIL_BEYOND]


def op_medians(passes: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Each op's median time over the passes, from {op name: seconds} per pass.

    An op is the same piece of work in every pass (one scenario-year, one
    trace call), so its median reads the same work however many passes fit
    in the run.
    """
    by_op: dict[str, list[float]] = {}
    for times in passes:
        for name, seconds in times.items():
            by_op.setdefault(name, []).append(seconds)
    return {name: statistics.median(ts) for name, ts in by_op.items()}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the acceptance rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worst_se(traces: Iterable[tuple[str, object]]) -> float:
    """Largest standard error of any table entry the traces produce.

    A direct trace fills one entry (its target-zone efficiency); a diffuse
    band fills a chamber-side and a crop-side entry.
    """
    worst = 0.0
    for kind, res in traces:
        se = res.se_zone if kind == "direct" else max(res.se_zone, res.se_chamber)
        worst = max(worst, se)
    return worst


def time_at_se(seconds: float, max_se: float) -> float:
    """Time projected to bring the worst stderr down to SE_TARGET.

    Monte Carlo variance falls as 1/rays while time grows with rays, so
    seconds * se**2 is budget-invariant; variance reduction lowers it.
    """
    return seconds * (max_se / SE_TARGET) ** 2
