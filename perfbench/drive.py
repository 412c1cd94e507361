"""The benchmark's own load generators: one closed loop, one open loop.

Closed loop: one thread issues the next operation as soon as the last
returns (and a host-speed probe has run; see :mod:`calib`).  Open loop: requests go out on a precomputed schedule over a
fixed number of keep-alive connections, whether or not earlier ones have
returned; each latency is measured from the request's *scheduled* send
time, so a stall is charged to every request it delays, and the
generator's own lateness (actual send minus scheduled send) is recorded
beside it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import calib
from tier import Conn

#: open-loop connections, so that requests can queue at the tier
CONNECTIONS = 2


@dataclass
class Sample:
    """One operation as the generator saw it."""

    index: int
    latency: float  #: seconds, from scheduled (open) or actual (closed) send
    late: float  #: seconds the send ran behind its schedule
    status: int | None = None  #: HTTP status; None for library calls
    payload: bytes | None = None
    error: str | None = None
    end: float = 0.0  #: perf_counter at completion
    probe: float = 0.0  #: :func:`calib.probe` just before (closed loop)


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    #: seconds in which at least one operation was in flight.  A closed
    #: loop is busy all its window but for the generator's own gaps; an
    #: open loop is busy only while the program works on a request, so
    #: completions per busy second measure the program, not the
    #: offered rate.
    busy: float = 0.0


def busy_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def closed_loop(call, inputs, seconds: float, on_op) -> LoopResult:
    """Call ``call(index, input)`` back to back until ``seconds`` pass.

    Before each call, :func:`calib.probe` measures the host speed the
    call will run at.  ``late`` is the generator's own gap between one
    completion and the next probe.  ``on_op(sample, value)`` sees every
    return value.
    """
    out = LoopResult()
    t0 = time.perf_counter()
    last_end = t0
    for i, item in enumerate(inputs):
        now = time.perf_counter()
        if now - t0 >= seconds:
            break
        late = now - last_end
        speed = calib.probe()  # untimed, like the gap before it
        start = time.perf_counter()
        sample = Sample(i, 0.0, late, probe=speed)
        try:
            value = call(i, item)
        except Exception as exc:  # a failed operation is counted, not fatal
            value = None
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.end = last_end = time.perf_counter()
        sample.latency = sample.end - start
        out.samples.append(sample)
        if sample.error is None:
            on_op(sample, value)
    else:
        raise RuntimeError("closed loop ran out of inputs before its window")
    out.busy = sum(s.latency for s in out.samples)
    return out


def open_loop(addr: str, schedule, bodies, spans=None) -> LoopResult:
    """POST ``bodies[i]`` to ``/v1/run`` at ``schedule[i]`` seconds over
    :data:`CONNECTIONS` connections.

    Bodies are encoded before the window opens and responses are kept
    as raw bytes, so the generator does as little as it can in-window.
    With a :class:`~spans.SpanLog`, every odd-numbered request also
    records a span from its actual send to its completion.
    """
    payloads = [json.dumps(body).encode() for body in bodies]
    samples: list[Sample | None] = [None] * len(payloads)
    intervals: list[tuple[float, float]] = []
    lock = threading.Lock()
    cursor = iter(range(len(payloads)))
    errors: list[BaseException] = []
    t0 = time.perf_counter() + 0.05

    def sender() -> None:
        conn = Conn(addr)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = t0 + schedule[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                sample = Sample(i, 0.0, sent - due)
                try:
                    sample.status, sample.payload = conn.request(
                        "POST", "/v1/run", payloads[i]
                    )
                except OSError as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = Conn(addr)
                sample.end = time.perf_counter()
                sample.latency = sample.end - due
                samples[i] = sample
                intervals.append((sent, sample.end))
                if spans is not None and i % 2:
                    spans.add("op.http.router", sent, sample.end)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("an open-loop sender did not finish")
    if errors:
        raise errors[0]
    out = LoopResult([s for s in samples if s is not None])
    if len(out.samples) != len(payloads):
        raise RuntimeError("an open-loop request was never sent")
    out.busy = busy_seconds(intervals)
    return out
