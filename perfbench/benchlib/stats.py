"""Percentiles of timing samples.

A timing is reported as its median and the highest percentile that still
has at least ten samples beyond it, so a p90 needs 100 samples.
"""
import math
import statistics
from fractions import Fraction

MIN_BEYOND = 10
CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples (exact, so
    90% of 100 is rank 90, not 91)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def nearest_rank(values, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n, q):
    """Samples above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def highest_percentile(n, min_beyond=MIN_BEYOND, candidates=CANDIDATES):
    """Highest candidate percentile with at least `min_beyond` samples beyond
    it, or None when even the median has fewer."""
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def interquartile_mean(values):
    """Mean of the values between the first and third quartile (by rank).

    Used for the centre of a fixed set of modeled times: where the set has
    a gap at its middle (clean vs faulted ops), the median jumps across the
    gap with small changes in the mix, while this moves smoothly."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    lo = n // 4
    hi = max(lo + 1, n - n // 4)
    return statistics.fmean(ordered[lo:hi])


def median(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)
