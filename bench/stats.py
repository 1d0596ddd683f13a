"""Order statistics for the runner and the per-layer metrics."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0
