"""In-memory spans and counts for the traced benchmark run.

Spans are recorded by the benchmark around its calls into singq (nothing
inside the package is instrumented).  Each span keeps its name, start, end,
parent span, workload and op id; all of them are written out once, when the
run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []          # [id, name, start, end, parent, op]
        self.counts = defaultdict(int)
        self._stack: list = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; returns (result, seconds)."""
        with self.span(name) as record:
            result = fn(*args)
        return result, record[3] - record[2]

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the part covered
        by direct children."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)

    def dump(self) -> dict:
        keys = ("id", "name", "start", "end", "parent", "op")
        return {"workload": self.workload,
                "self_times": self.self_times(),
                "counts": dict(self.counts),
                "spans": [dict(zip(keys, s)) for s in self.spans]}
