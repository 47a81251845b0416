"""Order statistics shared by the benchmark's generator and SUT sides.

Plain Python with no imports from the system under test, so both the
load generator (which must never import ``repro``) and the SUT process
can use it.
"""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """The *p*-th percentile (0..100) by linear interpolation; 0.0 if empty.

    Matches ``numpy.percentile``'s default ("linear") method.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def tail_percentile(count: int, minimum_beyond: int = 10) -> float | None:
    """Highest percentile in :data:`TAIL_PERCENTILES` with enough samples past it.

    A percentile is reportable when at least *minimum_beyond* of *count*
    samples lie strictly beyond it, i.e. ``count * (1 - p/100) >= 10``.
    ``None`` when even the median is not reportable.
    """
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= minimum_beyond - 1e-9:
            return p
    return None


def median(values) -> float:
    return percentile(values, 50.0)
