"""Order statistics for latency samples and repeated measurements."""

from __future__ import annotations


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def grouped_percentile(values, q: float, size: int = 100) -> tuple[float, int]:
    """Median over consecutive groups of ``values`` of each group's
    ``q``-th percentile, and the number of groups.

    ``values`` are in arrival order.  They are cut into ``n // size``
    contiguous groups of nearly equal length (one group when fewer than
    ``2 * size``), so each group holds at least ``size`` samples.  A
    burst of host noise then moves one group's percentile, not the
    reported median.

    >>> grouped_percentile(list(range(10)), 50, size=5)
    (4.5, 2)
    """
    xs = list(values)
    k = max(1, len(xs) // size)
    bounds = [round(i * len(xs) / k) for i in range(k + 1)]
    return median(
        percentile(xs[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])
    ), k


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - int(n * q / 100.0)
