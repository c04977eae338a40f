"""Spans and counts recorded around the benchmark's calls into fracspec.

Stdlib only, so the worker can import it before the timed set-up without
pulling in numpy.  A disabled Tracer hands out one shared no-op context and
records nothing.
"""

from __future__ import annotations

import json
import time
import tracemalloc


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "memory", "index")

    def __init__(self, tracer, name, memory):
        self.tracer = tracer
        self.name = name
        self.memory = memory

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        if self.memory:
            tracemalloc.start()
        # [name, start, end, parent, peak bytes]
        tr.spans.append([self.name, time.perf_counter(), None, parent, 0])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        rec = tr.spans[self.index]
        rec[2] = time.perf_counter()
        if self.memory:
            rec[4] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        tr._stack.pop()
        return False


class Tracer:
    """Spans (name, start, end, parent) and named counts, kept in memory.

    A span opened with memory=True also records the peak of traced
    allocations made inside it (tracemalloc runs only inside such spans, so
    other spans pay nothing for it).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def span(self, name: str, memory: bool = False):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, memory)

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self, first: int = 0) -> dict:
        """Per-name self time (duration minus child spans) of spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3] - first
            if parent >= 0:
                child[parent] += rec[2] - rec[1]
        out: dict = {}
        for rec, c in zip(spans, child):
            out[rec[0]] = out.get(rec[0], 0.0) + (rec[2] - rec[1]) - c
        return out

    def peak_bytes(self, name: str, first: int = 0) -> int:
        return max((rec[4] for rec in self.spans[first:] if rec[0] == name), default=0)

    def write(self, path: str):
        """Write spans as {name, start, end, parent} records, plus the counts."""
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, **({"peak_bytes": b} if b else {})}
            for n, s, e, p, b in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh)
