"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Optional, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """The highest whole percentile (50..99) with ``beyond`` samples past
    its nearest-rank position, or None when ``n`` is too small."""
    for pct in range(99, 49, -1):
        if n - -(-pct * n // 100) >= beyond:
            return pct
    return None


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail of one repetition's per-item latencies, in ms."""
    values = sorted(samples_s)
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} latency samples are too few for a "
                         f"tail with {TAIL_BEYOND} beyond it")
    return {"p50_ms": 1e3 * statistics.median(values),
            "tail_ms": 1e3 * nearest_rank(values, pct),
            "tail_pct": pct, "n": len(values)}


def geomean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values) if all(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
