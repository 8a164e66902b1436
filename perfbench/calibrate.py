"""Machine-speed calibration for the benchmark's clock.

The machine this benchmark was built on is a 2-vCPU virtual machine whose
speed drifts with its neighbours' load by 10-30% over minutes, in CPU time
as much as in wall time, so raw medians of runs taken minutes apart spread
far wider than any useful regression bound.  A fixed pure-Python kernel,
timed between jobs, slows down with the machine: every job's time is
scaled by REFERENCE_S / (the kernel's median time just before and after it).  In
20 s windows measured on that machine, normalising each sweep pass by the
kernel timed next to it cut the spread of the median pass time from 0.115
to 0.022 (interquartile range over median).

The kernel does the kinds of work the engine does (small integer lists
shifted, sorted and clamped; isqrt comparisons; sorts keyed by Fractions;
dict updates) without calling the package, so that no change to the
program's code changes the kernel's.  It runs in the same process as the
program, though, so state the program keeps there (heap size, memo caches,
garbage-collector load) can still move its time a little.  Never edit it in
a change that claims a speed-up.
"""
from __future__ import annotations

from fractions import Fraction
from bisect import bisect_left, bisect_right
from math import isqrt
from statistics import median
from time import perf_counter

# The median of the kernel times printed by the runs recorded in
# baseline.json (0.084-0.111 s each), so that scaled times read close to
# that machine's seconds at its median speed.
REFERENCE_S = 0.105


def kernel() -> int:
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 3000):
        acc += Fraction(i % 97, i)
        counts[i % 251] = counts.get(i % 251, 0) + i
    b = [(i * 7919) % 1013 for i in range(400)]
    total = 0
    for step in range(45):
        for i in range(37):
            b[i] -= 3
        b.sort(reverse=True)
        b = [v if v > 0 else 0 for v in b]
        for t in range(1, 300):
            if isqrt(t * t * 1000) < t * 31 + step:
                total += t
        cands = [(t, m, -k) for t in range(20) for m in range(5) for k in range(2)]
        cands.sort(key=lambda c: (Fraction(c[0] + 1, c[1] + 1), c))
    return total + len(counts) + acc.denominator % 7


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibration:
    """Kernel timings interleaved with the measured work.

    After each job, between(job_s) runs the kernel until the kernel runs
    it started have taken SHARE of the time the jobs took so far, so that
    kernel samples are spread over the run.  scale(start, end) is the factor for work done in
    [start, end]: REFERENCE_S over the median of the NEAR kernel samples
    just before it and the NEAR just after it.
    """

    SHARE = 0.25
    NEAR = 3

    def __init__(self) -> None:
        self.timeline: list[tuple[float, float]] = []  # (end time, seconds)
        self.work_s = 0.0
        self.between_s = 0.0
        self.sample()

    def sample(self) -> float:
        seconds = kernel_seconds()
        self.timeline.append((perf_counter(), seconds))
        return seconds

    @property
    def samples(self) -> list[float]:
        return [seconds for _, seconds in self.timeline]

    def between(self, job_s: float) -> float:
        """Record a job's time; return the seconds spent in the kernel."""
        self.work_s += job_s
        spent = 0.0
        while self.between_s + spent < self.SHARE * self.work_s:
            spent += self.sample()
        self.between_s += spent
        return spent

    def scale(self, start: float, end: float) -> float:
        ends = [t for t, _ in self.timeline]
        before = bisect_right(ends, start)
        after = bisect_left(ends, end)
        near = self.samples[max(before - self.NEAR, 0):before] + self.samples[after:after + self.NEAR]
        return REFERENCE_S / median(near or self.samples)
