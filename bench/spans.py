"""In-memory spans around the benchmark's own calls into the package.

A span records one public call made by the benchmark: its name, start and
end on the ``perf_counter_ns`` clock, the span it ran inside (or -1) and the
op it belongs to.  Nothing inside the package is instrumented; a layer's
time is the time the benchmark spent inside that layer's public function.
Spans stay in memory while the run measures and are written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = [name, 0, 0, tracer.open[-1] if tracer.open else -1, tracer.op]

    def __enter__(self):
        tracer = self.tracer
        tracer.open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter_ns()
        self.tracer.open.pop()
        return False


class Tracer:
    """Span store: ``spans[k] = [name, start_ns, end_ns, parent index, op id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op = -1  # op id stamped on spans opened from now on

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_op_ms(self, name: str) -> dict[int, float]:
        """Milliseconds spent in spans called ``name``, summed per op id."""
        out: dict[int, float] = defaultdict(float)
        for span_name, start, end, _, op in self.spans:
            if span_name == name:
                out[op] += (end - start) / 1e6
        return dict(out)

    def summary(self) -> dict[str, dict]:
        """Count, total and self milliseconds per span name."""
        rows: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_ns()):
            row = rows.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += own / 1e6
        return rows

    def write(self, path: str, ops: list[str]) -> None:
        """JSON lines: one header naming the case of each op id, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"op_cases": ops}) + "\n")
            for (name, start, end, parent, op), own in zip(self.spans, self.self_ns()):
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                            "self_ns": own,
                        }
                    )
                    + "\n"
                )
