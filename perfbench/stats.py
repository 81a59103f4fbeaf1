"""Order statistics used by the benchmark (no third-party imports)."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least TAIL_BEYOND of n samples beyond it.

    With nearest-rank percentiles, percentile q sits at rank ceil(q * n / 100),
    leaving n - rank samples beyond it.  Below 2 * TAIL_BEYOND samples no
    percentile above the median qualifies; the maximum (100) is reported then,
    and the sample count that goes with it says so.
    """
    if n < 2 * TAIL_BEYOND:
        return 100
    q = 100 * (n - TAIL_BEYOND) // n
    while q > 0 and n - math.ceil(q * n / 100) < TAIL_BEYOND:
        q -= 1
    return q


def percentile(values, q: int) -> float:
    """Nearest-rank percentile q (1..100) of a non-empty sequence."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs) / 100))
    return xs[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
