"""Timings corrected for the speed of a shared host.

The reference machine is a 2-vCPU VM on a shared host. A fixed pure-Python
loop there runs at two speeds about 1.7x apart, in phases that last from
seconds to over a minute. So 30 s runs of the same code differed by 20 to
40% in wall time, and no statistic taken within a run removes a phase that
covers the whole run.

So every timing is taken next to a reference: a fixed loop of the kind of
work topolab does (small-int bit tricks, tuples, set and dict lookups),
sampled before and after the work and, in worker passes, every
MARK_EVERY_S during it. A timing is reported as

    wall seconds * REF_S / reference seconds

which reads as seconds on a host where the loop takes REF_S, about its time
on the reference machine in a fast phase. A slow phase stretches the work
and the loop alike and cancels out. A slower program does not: the loop
never calls topolab.
"""

from __future__ import annotations

import signal
from time import perf_counter

REF_S = 0.005
MARK_EVERY_S = 0.5  # longest stretch of work between two reference samples


def reference() -> int:
    acc = 0
    seen = set()
    table = {}
    for i in range(12000):
        m = (i * 2654435761) & 0xFFFF
        low = m & -m
        acc += low.bit_length()
        key = (m & 0xFF, m >> 8)
        if key in seen:
            acc += 1
        else:
            seen.add(key)
        table[m & 1023] = key
    return acc + len(table)


def speed_sample() -> float:
    """Fastest of three reference runs, in seconds; the minimum drops a
    preemption that hits one of them."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference()
        best = min(best, perf_counter() - start)
    return best


class Timeline:
    """Reference samples around and inside timed stretches of work.

    Inside `timed`, a SIGALRM every MARK_EVERY_S takes a sample in the
    middle of whatever runs, so a single long operation is corrected for
    phase changes during it too. Time spent in those samples is taken off
    the operation it interrupted.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.stolen = 0.0

    def mark(self) -> None:
        start = perf_counter()
        self.marks.append((start, speed_sample()))
        self.stolen += perf_counter() - start

    def mark_if_due(self) -> None:
        if not self.marks or perf_counter() - self.marks[-1][0] >= MARK_EVERY_S:
            self.mark()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: REF_S over
        the mean of the samples from the last one before it to the first
        one after it."""
        first = max(i for i, (t, _) in enumerate(self.marks) if t <= start)
        last = min(i for i, (t, _) in enumerate(self.marks) if t >= end)
        window = [s for _, s in self.marks[first : last + 1]]
        return REF_S * len(window) / sum(window)

    def timed(self, ops) -> tuple[list, list[float]]:
        """Run each zero-argument callable in turn; returns the results and
        each one's time in reference seconds."""
        out, spans = [], []
        self.mark_if_due()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, MARK_EVERY_S, MARK_EVERY_S)
        try:
            for op in ops:
                stolen = self.stolen
                start = perf_counter()
                out.append(op())
                end = perf_counter()
                spans.append((start, end, self.stolen - stolen))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.mark()
        return out, [(e - s - st) * self.factor(s, e) for s, e, st in spans]

    def timed_one(self, op) -> tuple[object, float, float]:
        """`timed` for a single callable; also returns the wall seconds of
        the whole call, samples included, so a parent that timed the
        process from outside can take this part out of its own figure."""
        start = perf_counter()
        (result,), (ref_s,) = self.timed([op])
        return result, ref_s, perf_counter() - start
