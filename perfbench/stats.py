"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples
    (rounded first, so 99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of :data:`LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it, or None below that size."""
    best = None
    for pct in LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]
