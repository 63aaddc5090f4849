"""Summary statistics and the wall timer shared by the whole benchmark.

All latency inputs are simulated microseconds; every statistic here is
pure, so identical samples always give identical metrics. They live here,
not in the program's ``LatencyRecorder``, so that a change to the program
cannot change how it is measured.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, List, Sequence, Tuple

#: percentiles the tail metric may report, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: samples that must lie beyond the reported tail percentile
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: Sequence[float]) -> Tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``. A sample too small for even the
    median to have ten samples beyond it reports the median.
    """
    n = len(sorted_values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen, percentile(sorted_values, chosen)


def rare_fraction(count: int, total: int) -> float:
    """Share of ``total`` events that were ``count``, never exactly 0.

    The posterior mean under a Jeffreys prior, ``(count + 1/2) /
    (total + 1)``: with no event observed it reads ``1 / (2 (total + 1))``
    instead of 0, so a run with no failures still compares as a finite
    ratio against the next one, while any real failure rate shows as
    itself once ``count`` outgrows the half-count.
    """
    if total < 0 or not 0 <= count <= total:
        raise ValueError(f"bad fraction {count}/{total}")
    return (count + 0.5) / (total + 1)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when the denominator is 0."""
    return num / den if den else 0.0


def flatten(groups: Sequence[Sequence[float]]) -> List[float]:
    """Concatenate and sort samples from several legs."""
    return sorted(v for group in groups for v in group)


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn()``; return its result, wall seconds and CPU seconds."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0
