"""Arithmetic the benchmark reports with: percentiles, spreads, span self time.

Kept free of hbvkit imports so the self-tests run without the package.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it; otherwise one or two slow samples would set it alone.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile: the smallest sample with at least p%
    of the samples at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    rank = max(1, math.ceil(p / 100.0 * len(xs) - 1e-9))
    return xs[rank - 1]


def tail_percentile(n: int, p: float) -> float:
    """The percentile to report in place of ``p`` for ``n`` samples.

    That is ``p`` itself when at least ``MIN_BEYOND`` samples lie beyond its
    nearest rank, otherwise the highest whole percentile that still has
    ``MIN_BEYOND`` beyond it (never below the median).
    """
    if n < 1:
        raise ValueError("no samples")

    def beyond(q: float) -> int:
        return n - max(1, math.ceil(q / 100.0 * n - 1e-9))

    if beyond(p) >= MIN_BEYOND:
        return p
    q = math.floor(p)
    while q > 50 and beyond(q) < MIN_BEYOND:
        q -= 1
    return float(q)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted (not over those that
    succeeded, nor over those that completed)."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - union_length(clipped)
