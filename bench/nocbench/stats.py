"""Summaries of timing samples.

A timing is reported as median, min, max and sample count.  A percentile
is reported only where at least ten samples lie beyond it, so 60 samples
give a p50 and 200 samples give a p95.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

__all__ = ["PERCENTILES", "percentile", "highest_percentile", "summarize", "spread"]

PERCENTILES = (50, 90, 95, 99)
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def highest_percentile(n: int) -> Optional[int]:
    """Highest of :data:`PERCENTILES` with at least ten of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (100 - p) >= MIN_SAMPLES_BEYOND * 100:
            best = p
    return best


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """``median``/``min``/``max``/``n`` plus every percentile the rule allows."""
    if not samples:
        raise ValueError("no samples to summarize")
    out: Dict[str, float] = {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }
    top = highest_percentile(len(samples))
    for p in PERCENTILES:
        if top is not None and p <= top:
            out[f"p{p}"] = percentile(samples, p)
    return out


def spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf
