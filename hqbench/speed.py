"""Machine-speed reference for timing on a shared, noisy host.

On a host whose cores are shared with other tenants, the same Python code
runs up to about 1.5x slower for minutes at a time.  A fixed pure-Python
reference job (dict updates keyed by tuples, complex and Fraction
arithmetic, as in hardyq's inner loops) is timed between ops, at most every
PROBE_EVERY_S seconds.  A measured interval is divided by the slowdown, the
median reference time near that interval over REFERENCE_S, so timings from
slow and fast periods are comparable.  Nothing here uses hardyq, so a change
to the package cannot move the reference.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.012   # reference job time on a 2-vCPU Xeon VM at its usual speed
PROBE_EVERY_S = 0.5
NEAR_S = 2.0          # probes this close to an interval set its slowdown


def reference_job() -> int:
    """About 1 MB of dicts and complex lists, like a window fill: a job with
    a small working set tracks the host's slowdowns less well."""
    d: dict[tuple[int, int], complex] = {}
    for i in range(12000):
        k = (i % 3001, i % 7)
        d[k] = d.get(k, 0j) + complex(i, 1) * 0.5
    values = [complex(i, -i) for i in range(20000)]
    return len(d) + len(values) + int(sum(Fraction(i % 7, 5) for i in range(150)))


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_job()
        self.times.append(t0)
        self.durations.append(perf_counter() - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median reference time over REFERENCE_S, from the probes within
        NEAR_S of [start, end] (or the two nearest when none are)."""
        lo = bisect_left(self.times, start - NEAR_S)
        hi = bisect_right(self.times, end + NEAR_S)
        near = self.durations[lo:hi]
        if not near:
            i = bisect_left(self.times, start)
            near = self.durations[max(i - 1, 0):i + 1]
        return statistics.median(near) / REFERENCE_S

    def normalize(self, start: float, end: float) -> float:
        """Seconds in [start, end] at reference speed."""
        return (end - start) / self.slowdown(start, end)

    def median_slowdown(self) -> float:
        return statistics.median(self.durations) / REFERENCE_S
