"""Summary statistics for the job timings of one benchmark run."""
from __future__ import annotations

import statistics

# The tail is the highest percentile that still has this many jobs beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Value at the highest percentile with at least `beyond` samples above it.

    With n samples sorted ascending, the value at 0-based rank n - beyond - 1
    has exactly `beyond` samples above it; its percentile is the share of
    samples at or below it, 100 * (n - beyond) / n.  Returns
    (value, percentile, n).  Raises ValueError below beyond + 1 samples,
    where no such percentile exists.
    """
    count = len(samples)
    if count < beyond + 1:
        raise ValueError(f"a tail with {beyond} samples beyond it needs at least {beyond + 1} samples, got {count}")
    ordered = sorted(samples)
    rank = count - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / count, count


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
