"""In-memory spans and counts for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans nest: a span opened
while another is open records it as its parent. Self time is a span's
duration minus the time covered by its direct children; the code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracing off: spans and counts cost one method call each."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Keeps every span in memory until ``write`` is called."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, run_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, run_id)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")
