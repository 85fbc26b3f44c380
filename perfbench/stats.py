"""Sample summaries shared by the workloads and the spread check."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so p90 needs 100 samples.
MIN_TAIL = 10


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ceil(q*n)-th smallest value (1-based), q in (0, 1]."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(samples: list[float]) -> dict:
    """Median, p90 when the sample count allows it, and the count."""
    if not samples:
        raise ValueError("no samples to summarize")
    values = sorted(samples)
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) - math.ceil(0.9 * len(values)) >= MIN_TAIL:
        out["p90"] = nearest_rank(values, 0.9)
    return out


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
