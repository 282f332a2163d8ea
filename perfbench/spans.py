"""Spans and counters kept in memory by the benchmark.

A span records a name, its start and end on ``perf_counter``, the span
that was open when it began, and the id of the operation it belongs to
(a set-up, a training step, an evaluation). Spans are placed around the
benchmark's own calls into the package, so the program under test is
not changed by tracing. A disabled tracer hands out one shared no-op
span, which is what the untraced run uses. ``span_cost`` times what one
recorded span costs, so that a traced run can state its own overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        rec = self.tracer.spans[self.index]
        rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.tracer.spans[self.index]
        rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans when enabled; otherwise every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, op, start, end, parent]
        self.counters = defaultdict(float)
        self._stack = []
        self.op = None

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, 0.0, 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return _Span(self, len(self.spans) - 1)

    def count(self, name: str, amount: float):
        if self.enabled:
            self.counters[name] += amount

    def self_times(self) -> dict:
        """Self time of every span, grouped by name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return dict(out)

    def summary(self) -> dict:
        return {
            name: {
                "calls": len(times),
                "self_s_median": statistics.median(times),
                "self_s_total": sum(times),
            }
            for name, times in sorted(self.self_times().items())
        }

    def write(self, path, extra: dict):
        doc = {
            **extra,
            "summary": self.summary(),
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "op": op, "start": s, "end": e, "parent": p}
                for n, op, s, e, p in self.spans
            ],
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def span_cost(pairs: int = 20000, repeats: int = 5) -> float:
    """Seconds one span of an enabled tracer costs, opened and closed empty.

    The median over ``repeats`` fresh tracers; the loop around the span is
    counted too, so this is an upper bound.
    """
    costs = []
    for _ in range(repeats):
        tr = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(pairs):
            with tr.span("span_cost"):
                pass
        costs.append((time.perf_counter() - t0) / pairs)
    return statistics.median(costs)
