"""Summary statistics the benchmark reports.

The tail rule: a latency tail is the highest percentile, at most the
one asked for, that still has at least ten samples beyond it.  With
``n`` samples that is ``min(want, 100 * (1 - 10 / n))`` by nearest
rank, so ``n - 10`` is the rank reported once ``n < 1000`` for p99.
Below 20 samples no percentile at or above the median qualifies and
the maximum is reported instead.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

__all__ = ["TAIL_BEYOND", "tail_percentile", "median"]

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(values: Sequence[float], want: float = 99.0,
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(value, percentile_used)``; the percentile is 100 for the max."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    used = min(want, 100.0 * (1.0 - beyond / n))
    if used < 50.0:
        return ordered[-1], 100.0
    rank = max(1, math.ceil(used / 100.0 * n - 1e-9))
    return ordered[rank - 1], used


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
