"""The latency tail statistic of the benchmark."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND):
    """The highest nearest-rank percentile with at least ``beyond`` samples
    above it, but never below the median.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` samples the
    rank is ``n - beyond`` (1-based), i.e. the ``100 (n - beyond) / n``-th
    percentile.  A tail lies in the upper half, so the rank is at least
    ``floor(n / 2) + 1``, whose value is never below ``statistics.median``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - beyond, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank
