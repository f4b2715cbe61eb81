"""Spans and counts recorded around the benchmark's calls into polykh.

Every library call the workloads make goes through ``Tracer.call``.  With
tracing off it is a plain call.  With tracing on it records a span (name,
start, end, parent span, operation id) and keeps it in memory until
``dump`` writes all spans at the end of the run.  In the memory pass the
calls named in ``MEMORY_TRACED`` run under ``tracemalloc``, one call at a
time, and their peak allocation is kept per name.
"""

from __future__ import annotations

import json
import time
import tracemalloc

MEMORY_TRACED = ("khovanov.complex", "khovanov.homology")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.memory = False
        self.spans: list = []        # [name, start, end, parent, op]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.cubes: list = []        # (diagram, order) built in this op
        self._stack: list[int] = []
        self._op = None

    def start_op(self, op_id) -> None:
        self._op = op_id
        self.cubes.clear()

    def call(self, name: str, fn, *args, **kwargs):
        if self.memory and name in MEMORY_TRACED:
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak)
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = [name, start, end, parent, self._op]

    def count(self, name: str, value=1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def note_cube(self, diagram, order) -> None:
        """Remember a cube build so its descent can be timed after the op."""
        if self.enabled:
            self.cubes.append((diagram, order))

    def span_totals(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name, over spans recorded since index ``first``."""
        out: dict[str, float] = {}
        for name, start, end, _parent, _op in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
