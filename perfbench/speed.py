"""Scaling host time to a reference machine speed.

On a shared host the CPU runs faster or slower in phases that last
from seconds to minutes, as other tenants load it. On the host
`BENCHMARK.json` was tuned on, a fixed pure-Python loop took up to 2.5
times as long in slow phases, and raw figures of one workload spread
by 15-28% across ten runs. The benchmarked code slows by roughly the
same factor as the loop. So every timed region is bracketed by two
timings of the loop, and its host time is reported scaled to the
speed at which the loop takes ``REFERENCE_S``. In a noisy phase this
cut the spread of 15-s medians from 19% to 5%. A change to the
program cannot move the loop, which belongs to the benchmark.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["REFERENCE_S", "loop_seconds", "to_reference"]

#: The loop's time at the reference speed: its median on the host the
#: bounds in BENCHMARK.json were set on (Intel Xeon, Python 3.11).
REFERENCE_S = 0.0075


def loop_seconds() -> float:
    """The loop's current time: the mean of three runs.

    The mean, not the best: the benchmarked code runs through the
    host's slow moments too, and on the tuning host the mean scaled
    identical repetitions a little more evenly than the best did.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(perf_counter() - start)
    return sum(times) / len(times)


def to_reference(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` of host time, scaled to the reference speed."""
    return seconds * REFERENCE_S * 2 / (loop_before + loop_after)
