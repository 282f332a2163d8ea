"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Runs ``fn()``; returns (its result, the peak of traced allocations in bytes
    above what was allocated when it started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
