"""Host speed, from a fixed loop, so host time reads at one reference speed.

The benchmark runs on a few cores of a shared machine whose speed drifts
by a third or more over minutes, as neighbours come and go.  That drift
moves every timing of the program the same way, and by more than any
bound a benchmark could hold.  So each timing is read against a fixed
pure-Python loop, :func:`probe`, run in the same process beside it:
``scaled = seconds * REF_PROBE_S / probe()`` is what the timing would
have been on a host where the loop takes :data:`REF_PROBE_S`.  The loop
calls nothing of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

from stats import median

#: seconds :func:`probe` takes on the reference host (a quiet moment of
#: the 2-CPU VM whose figures the README gives)
REF_PROBE_S = 0.00045


def _work() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        table[i & 63] = acc
        acc += (i * 0.5) % 7.0
    return acc


def probe(repeats: int = 3) -> float:
    """Seconds the fixed loop takes now: the fastest of ``repeats``, so
    an interrupt during one of them does not count."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def span(seconds: float) -> float:
    """The median :func:`probe` over about ``seconds`` of probing."""
    end = time.perf_counter() + seconds
    values = [probe()]
    while time.perf_counter() < end:
        values.append(probe())
    return median(values)


def local(values: list[float], width: int = 2) -> list[float]:
    """Each value replaced by the median of it and its ``width``
    neighbours on either side: the host speed around one operation,
    steadier than one probe."""
    return [
        median(values[max(0, i - width): i + width + 1])
        for i in range(len(values))
    ]
