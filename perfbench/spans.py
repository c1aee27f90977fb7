"""In-memory spans and the summary statistics the benchmark reports.

A span is recorded around one call that the benchmark's own files make
into a public function of a ``cvk`` layer.  Spans are kept in a list and
written out once, when the run ends, so tracing does no I/O on the hot
path.  With tracing off, ``Tracer.span`` records nothing.
"""

import math
import statistics
import time
from contextlib import contextmanager

perf = time.perf_counter


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Tracer:
    """Spans as (name, start, end, parent index, request id) tuples."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self) -> dict:
        """Per span name: count, median and p95 in seconds."""
        out = {}
        for name in sorted({s[0] for s in self.spans}):
            d = self.durations(name)
            out[name] = {"n": len(d), "p50_s": median(d), "p95_s": percentile(d, 95)}
        return out

    def dump(self) -> list:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "request": r}
            for n, a, b, p, r in self.spans
        ]
