"""Exact percentiles over the benchmark's own raw timings.

Every latency the benchmark reports comes from here, never from the
service's log2 ``LatencyHistogram``: a bucket edge cannot show a 10%
change, a sorted array of raw samples can.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(ordered: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile that leaves at
    least :data:`TAIL_MIN_BEYOND` samples above it (the median when the
    sample is too small for any higher rung)."""
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, percentile(ordered, p)
    return 50.0, percentile(ordered, 50.0)


def ladder(ordered: Sequence[float]) -> dict:
    """Every ladder percentile that leaves ten samples beyond it."""
    n = len(ordered)
    return {
        p: percentile(ordered, p)
        for p in TAIL_LADDER
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND
    }


def median_or(values: Sequence[float], default: float = 0.0) -> float:
    """The median of ``values`` (nearest-rank), ``default`` when empty."""
    if not values:
        return default
    return percentile(sorted(values), 50.0)


def describe(ordered: Sequence[float]) -> Optional[dict]:
    """p50 and tail with the sample count, for the run record."""
    if not ordered:
        return None
    p, value = tail(ordered)
    return {
        "p50": percentile(ordered, 50.0),
        "tail_percentile": p,
        "tail": value,
        "count": len(ordered),
    }
