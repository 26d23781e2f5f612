"""In-memory spans, written out once when a traced run ends.

A span is (id, parent id, name, start ns, end ns). Spans of one operation
share the operation's root span as their ancestor.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack = [0]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans) + 1
        self.spans.append((sid, self._stack[-1], name, 0, 0))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid - 1] = (sid, self.spans[sid - 1][1], name, start, end)

    def call(self, name: str, fn, *args):
        """fn(*args) inside a leaf span named after the public function it calls."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.spans.append((len(self.spans) + 1, self._stack[-1], name, start, end))

    def adopt(self, spans: list) -> None:
        """Append spans recorded by a child process, renumbered under the current span."""
        base = len(self.spans)
        parent = self._stack[-1]
        for sid, pid, name, start, end in spans:
            self.spans.append((sid + base, pid + base if pid else parent, name, start, end))

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1000 for _, _, n, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, pid, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": pid, "name": name, "start_ns": start, "end_ns": end}) + "\n")
