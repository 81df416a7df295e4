"""Order statistics for benchmark samples."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reportable(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q``-th percentile: at least
    :data:`MIN_BEYOND` samples must lie beyond it (the median is
    always reportable)."""
    # Rounded so that, e.g., 10 000 samples support the 99.9th.
    return q == 50.0 or round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND


def highest_percentile(n: int) -> Optional[float]:
    """The highest tail percentile ``n`` samples support, or None."""
    tails = [q for q in PERCENTILES if q > 50.0 and reportable(n, q)]
    return tails[-1] if tails else None


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median: the run-to-run
    spread the acceptance rule compares with a metric's bound."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")

