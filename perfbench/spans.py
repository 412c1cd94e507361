"""Wall-clock spans recorded from the benchmark's side of each call.

A span is one timed call into a layer of the program: name, start, end,
the span that caused it and the operation it belongs to.  Spans stay in
memory while the run measures and are written out once at the end.  A
layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    index: int
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder with per-layer self-time attribution."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0
        self._lock = threading.Lock()

    def next_op(self) -> int:
        """A fresh operation id (spans of one operation share it)."""
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else -1
        record = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an already-timed root-level operation; safe to call
        from the open loop's sender threads."""
        with self._lock:
            op = self.next_op()
            record = Span(len(self.spans), name, op, -1, start, end)
            self.spans.append(record)
        return record

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its self time (duration minus child coverage).

        Children of one parent run sequentially here, so their union is
        the sum of their durations clipped to the parent's interval.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                parent = self.spans[record.parent]
                lo = max(record.start, parent.start)
                hi = min(record.end, parent.end)
                covered[record.parent] += max(0.0, hi - lo)
        return [
            (record, max(0.0, record.duration - covered[record.index]))
            for record in self.spans
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record, self_s in self.self_times():
                doc = asdict(record)
                doc["self_s"] = self_s
                fh.write(json.dumps(doc) + "\n")
