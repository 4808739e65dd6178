"""In-memory spans for the traced run.

Spans are opened only by the benchmark's own code, around the calls it makes
into the package; nothing inside the package is instrumented.  A span
records its name, start, end, parent span and op id, and the whole list is
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    cls: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, cls: str = ""):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, op, parent, time.perf_counter(),
                  cls=cls)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        covered = {sp.id: 0.0 for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.duration
        return {sp.id: sp.duration - covered[sp.id] for sp in self.spans}

    def write(self, path) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(sp), self=selfs[sp.id]) for sp in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
