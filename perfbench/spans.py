"""In-memory spans around the benchmark's calls into each program layer.

A span records its name, the trace it belongs to (one traced
enumeration), its parent span, and its start and end. With a Spark session
attached, every span also runs its Spark jobs under its own job group, so
jobs and tasks can be attributed to it afterwards (``sparkenv.job_counts``).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional


@dataclass
class Span:
    name: str
    trace_id: int
    parent: Optional[str]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def group(self) -> str:
        """Spark job group of this span."""
        return f"{self.trace_id}/{self.name}"


class Tracer:
    """Collects spans; optionally tags Spark jobs with the open span."""

    def __init__(self, spark=None):
        self.spans: List[Span] = []
        self._sc = spark.sparkContext if spark is not None else None

    @contextmanager
    def span(
        self, name: str, trace_id: int, parent: Optional[str] = None
    ) -> Iterator[Span]:
        sp = Span(name, trace_id, parent, time.perf_counter())
        if self._sc is not None:
            self._sc.setJobGroup(sp.group, name)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self._sc is not None:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
            self.spans.append(sp)

    def children(self, trace_id: int, parent: str) -> List[Span]:
        return [
            s for s in self.spans
            if s.trace_id == trace_id and s.parent == parent
        ]
