"""Benchmark-side spans: the traced run's record of calls into each layer.

Spans are recorded from outside the program, around its public calls
(the program's own ``trace=True`` digest is attached to the join spans as
an attribute).  Everything stays in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Recorder:
    """Collects ``(id, name, start, end, parent, op, attrs)`` spans.

    ``op`` is the id shared by the spans of one join call or one request.
    Nested ``span()`` blocks parent themselves through a stack; concurrent
    asyncio requests pass ``parent`` explicitly through :meth:`add`.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self._stack: list = []

    def add(self, name, start, end, parent=None, op=None, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name,
            "start": start - self.origin, "end": end - self.origin,
            "parent": parent, "op": op, **({"attrs": attrs} if attrs else {}),
        })
        return span_id

    @contextmanager
    def span(self, name, op=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        record = self.spans[self.add(name, start, start, parent, op, **attrs)]
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def self_seconds(self) -> dict:
        """Per span name: total duration minus the part children cover."""
        children: dict = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: dict = {}
        for span in self.spans:
            covered = _covered(children.get(span["id"], ()), span["start"], span["end"])
            own = (span["end"] - span["start"]) - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "self_seconds": self.self_seconds(), **extra}, handle)


def _covered(children, start, end) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s["start"]):
        low = max(child["start"], reach)
        high = min(child["end"], end)
        if high > low:
            total += high - low
            reach = high
    return total


def span(recorder, name, op=None, **attrs):
    """``recorder.span(...)``, or a no-op block in an untraced run."""
    if recorder is None:
        return nullcontext({})
    return recorder.span(name, op, **attrs)
