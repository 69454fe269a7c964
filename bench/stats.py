"""Order statistics for the end-to-end latency metrics (no numpy, so the
run.py can use them without importing the numerical stack)."""

from __future__ import annotations

# The tail is the highest of these percentiles with at least MIN_BEYOND
# samples beyond it; the few, widely spaced candidates keep the choice
# the same from run to run.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, q):
    """Linearly interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when n is too small for any."""
    best = None
    for q in TAIL_CANDIDATES:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9:
            best = q
    return best


def tail(values):
    """(percentile, latency there, samples strictly beyond it)."""
    q = tail_percentile(len(values))
    if q is None:
        q = 50.0
    v = percentile(values, q)
    return q, v, sum(1 for x in values if x > v)


def median(values):
    return percentile(values, 50.0)
