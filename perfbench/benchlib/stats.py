"""Summary statistics of one run: latency percentiles and throughput.

A failed operation has no meaningful latency, so it enters every latency
statistic as +inf: it can only push a percentile up, and fixing a failure can
never read as a slowdown.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

FAILED = math.inf
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ``beyond`` samples above it."""

    percentile: float  # share of samples at or below the value, in percent
    value: float
    samples: int
    beyond: int

    def describe(self) -> str:
        return (f"p{self.percentile:.1f} of {self.samples} samples "
                f"({self.beyond} beyond)")


def latencies_with_failures(latencies: list[float],
                            failed: list[bool]) -> list[float]:
    """Latencies with every failed operation replaced by +inf."""
    if len(latencies) != len(failed):
        raise ValueError("one failure flag per latency is needed")
    return [FAILED if bad else t for t, bad in zip(latencies, failed)]


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples.  On a machine whose speed
    drifts between states, this follows the mix of states smoothly where a
    median jumps from one state to the other."""
    if not values:
        raise ValueError("mean of no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The sorted sample with exactly ``beyond`` samples after it.

    Raises ValueError when there are too few samples for any such
    percentile; the operation lists are sized so that this cannot happen.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(f"{n} samples: a tail needs at least {beyond + 1}")
    ordered = sorted(values)
    i = n - 1 - beyond
    return Tail(percentile=100.0 * (i + 1) / n, value=ordered[i],
                samples=n, beyond=beyond)


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
