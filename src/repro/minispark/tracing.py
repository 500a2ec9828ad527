"""Structured tracing: spans and instant events for every execution layer.

The bench harness and the paper's evaluation both need to know *where time
and bytes go* — per join phase, per stage, per task, per attempt.  This
module provides the :class:`Tracer` the rest of minispark reports into:

* the joins open **phase** spans (Ordering / Clustering / Joining /
  Expansion for CL, ordering / join with group / verify sub-phases for the
  VJ family) around their driver-side phase blocks;
* the scheduler opens a **job** span per action and a **stage** span per
  shuffle-map or result stage, and — from the attempt windows each
  executor measures inside its workers — synthesizes one **task** span per
  partition with one **attempt** child span per try, annotated with
  wall/CPU seconds, failure/chaos/speculation flags, and retry counts;
* recovery machinery emits **instant events**: injected shuffle loss,
  lineage recomputation, and executor fallbacks (processes -> threads ->
  serial).

Spans carry a monotonic ``perf_counter`` timeline, which is comparable
across the driver, its threads, and fork-based workers (CLOCK_MONOTONIC is
system-wide on POSIX), so a trace assembled after the fact still shows the
true concurrency structure.

Two exporters:

* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON (the
  ``--trace-out`` CLI flag), loadable in ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_.  Field ordering and lane
  assignment are deterministic so traces diff cleanly and a golden-file
  test can pin the schema (``schemaVersion`` is bumped on layout changes).
* :meth:`Tracer.summary` — a human-readable report (``--trace-summary``):
  span counts, per-phase seconds, the top-N slowest stages with
  partition-skew stats (min/median/p95/max task seconds), and recovery
  totals.

:meth:`Tracer.digest` condenses the trace into plain data that
``RunRecord``/``BENCH_*.json`` stamp alongside the measurements, making
every benchmark run self-profiling.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: Version of the exported trace layout; bumped whenever the Chrome
#: exporter's event shape or field ordering changes.
TRACE_SCHEMA_VERSION = 1

#: Span kinds in nesting order (outermost first).  ``phase`` spans are
#: driver-side algorithm phases and may nest (VJ's join > group/verify);
#: ``job`` spans sit under the innermost open phase, if any.
SPAN_KINDS = ("phase", "job", "stage", "task", "attempt")


@dataclass
class Span:
    """One timed interval on the trace; ``end is None`` while still open."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    begin: float
    end: float | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.begin

    def annotate(self, **args) -> "Span":
        self.args.update(args)
        return self


@dataclass
class InstantEvent:
    """A zero-duration annotation (chaos fault, recompute, fallback)."""

    event_id: int
    name: str
    kind: str
    ts: float
    parent_id: int | None = None
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events for one execution (one Context).

    Driver-side spans (phases, jobs, stages) are opened with
    :meth:`begin`/:meth:`end` (or the :meth:`span` context manager) and
    nest through an internal stack; worker-side intervals (tasks,
    attempts) are reported after the fact with :meth:`add_completed`,
    with their parent passed explicitly — the scheduler knows it.  All
    mutation is lock-guarded so speculative driver-side threads could
    report safely too.
    """

    def __init__(self, origin: float | None = None):
        self.origin = perf_counter() if origin is None else origin
        self.spans: list = []
        self.events: list = []
        self._lock = threading.Lock()
        self._stack: list = []
        self._ids = itertools.count()

    # ------------------------------------------------------------ recording

    def current(self) -> Span | None:
        """Innermost open driver-side span (the default parent)."""
        with self._lock:
            return self._stack[-1] if self._stack else None

    def begin(self, name: str, kind: str, parent: Span | None = None,
              **args) -> Span:
        """Open a driver-side span; it becomes the default parent."""
        now = perf_counter()
        with self._lock:
            if parent is None and self._stack:
                parent = self._stack[-1]
            span = Span(
                span_id=next(self._ids),
                parent_id=None if parent is None else parent.span_id,
                name=name,
                kind=kind,
                begin=now,
                args=dict(args),
            )
            self.spans.append(span)
            self._stack.append(span)
        return span

    def end(self, span: Span, **args) -> Span:
        """Close a span opened with :meth:`begin`."""
        now = perf_counter()
        with self._lock:
            span.end = now
            span.args.update(args)
            if span in self._stack:
                self._stack.remove(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str, **args):
        opened = self.begin(name, kind, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def add_completed(
        self,
        name: str,
        kind: str,
        begin: float,
        end: float,
        parent: Span | None = None,
        **args,
    ) -> Span:
        """Record an already-finished interval (task/attempt windows)."""
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                parent_id=None if parent is None else parent.span_id,
                name=name,
                kind=kind,
                begin=begin,
                end=end,
                args=dict(args),
            )
            self.spans.append(span)
        return span

    def instant(self, name: str, kind: str, ts: float | None = None,
                parent: Span | None = None, **args) -> InstantEvent:
        """Record a point-in-time annotation event."""
        if ts is None:
            ts = perf_counter()
        with self._lock:
            event = InstantEvent(
                event_id=next(self._ids),
                name=name,
                kind=kind,
                ts=ts,
                parent_id=None if parent is None else parent.span_id,
                args=dict(args),
            )
            self.events.append(event)
        return event

    # -------------------------------------------------------------- queries

    def spans_of(self, kind: str) -> list:
        return [span for span in self.spans if span.kind == kind]

    def events_of(self, kind: str) -> list:
        return [event for event in self.events if event.kind == kind]

    def children(self, span: Span, kind: str | None = None) -> list:
        return [
            s
            for s in self.spans
            if s.parent_id == span.span_id and (kind is None or s.kind == kind)
        ]

    # --------------------------------------------------------------- digest

    def digest(self) -> dict:
        """Condense the trace into plain data for ``RunRecord``/bench JSON.

        Carries what regression tooling diffs: span/event counts per kind,
        the phase names in first-seen order with their accumulated wall
        seconds (``phase_seconds`` — the quantity the kernel-speedup gate
        compares), and one entry per stage with its task count, wall
        seconds, and partition-skew stats.
        """
        span_counts: dict = {}
        for span in self.spans:
            span_counts[span.kind] = span_counts.get(span.kind, 0) + 1
        event_counts: dict = {}
        for event in self.events:
            event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
        phases: list = []
        phase_seconds: dict = {}
        for span in self.spans:
            if span.kind == "phase":
                if span.name not in phases:
                    phases.append(span.name)
                phase_seconds[span.name] = (
                    phase_seconds.get(span.name, 0.0) + (span.duration or 0.0)
                )
        stage_spans = self.spans_of("stage")
        stages = [
            {
                "name": span.name,
                "tasks": span.args.get("tasks", len(self.children(span, "task"))),
                "wall_seconds": span.duration or 0.0,
                "skew": span.args.get("task_stats", {}),
            }
            for span in stage_spans
        ]
        accumulators = {
            "deltas_merged": sum(
                s.args.get("stats_deltas_merged", 0) for s in stage_spans
            ),
            "deltas_deduped": sum(
                s.args.get("stats_deltas_deduped", 0) for s in stage_spans
            ),
            "deltas_discarded": sum(
                s.args.get("stats_deltas_discarded", 0) for s in stage_spans
            ),
        }
        digest = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "span_counts": span_counts,
            "event_counts": event_counts,
            "num_jobs": span_counts.get("job", 0),
            "num_stages": span_counts.get("stage", 0),
            "num_tasks": span_counts.get("task", 0),
            "num_attempts": span_counts.get("attempt", 0),
            "phases": phases,
            "phase_seconds": phase_seconds,
            "stages": stages,
            "accumulators": accumulators,
        }
        # Out-of-core section, only when stages actually ran under a
        # memory budget (the scheduler annotates spill args only then) —
        # budget-free traces keep their historical shape byte for byte.
        spill_spans = [
            s for s in stage_spans if "spill_budget_bytes" in s.args
        ]
        if spill_spans:
            digest["spill"] = {
                "budget_bytes": spill_spans[0].args["spill_budget_bytes"],
                "spilled_bytes": sum(
                    s.args.get("spilled_bytes", 0) for s in spill_spans
                ),
                "spill_files": sum(
                    s.args.get("spill_files", 0) for s in spill_spans
                ),
                "spill_read_retries": sum(
                    s.args.get("spill_read_retries", 0) for s in stage_spans
                ),
                "peak_tracked_bytes": max(
                    s.args.get("spill_peak_tracked_bytes", 0)
                    for s in spill_spans
                ),
            }
        # Broadcast section, only when a stage referenced a broadcast
        # (the scheduler annotates broadcast args only then) —
        # broadcast-free traces keep their historical shape byte for
        # byte.
        broadcast_spans = [
            s for s in stage_spans if "broadcast_bytes" in s.args
        ]
        if broadcast_spans:
            charged = [s.args["broadcast_bytes"] for s in broadcast_spans]
            digest["broadcast"] = {
                "stage_broadcast_bytes": sum(charged),
                "stage_broadcast_bytes_max": max(charged),
                "stage_broadcast_handles": sum(
                    s.args.get("broadcast_handles", 0)
                    for s in broadcast_spans
                ),
            }
        return digest

    # ------------------------------------------------------- chrome export

    def _task_lanes(self) -> dict:
        """Greedy interval colouring of task spans onto display lanes.

        Lane 0 is the driver (phases, jobs, stages); concurrent tasks get
        separate lanes so Perfetto renders their overlap.  Deterministic:
        tasks are placed in (begin, span_id) order onto the first free
        lane.
        """
        lanes: dict = {}
        lane_free_at: list = []
        ordered = sorted(
            self.spans_of("task"), key=lambda s: (s.begin, s.span_id)
        )
        for span in ordered:
            end = span.end if span.end is not None else span.begin
            for lane, free_at in enumerate(lane_free_at):
                if free_at <= span.begin + 1e-9:
                    lane_free_at[lane] = end
                    lanes[span.span_id] = lane + 1
                    break
            else:
                lane_free_at.append(end)
                lanes[span.span_id] = len(lane_free_at)
        return lanes

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Complete (``ph="X"``) events for spans, instant (``ph="i"``)
        events for annotations, plus thread-name metadata so Perfetto
        labels the driver and task lanes.  Timestamps are integer
        microseconds relative to the tracer's origin; events are ordered
        by (ts, id) so output is stable for golden-file testing.
        """
        lanes = self._task_lanes()

        def tid_of(span: Span) -> int:
            if span.kind == "task":
                return lanes.get(span.span_id, 1)
            if span.kind == "attempt":
                return lanes.get(span.parent_id, 1)
            return 0

        def micros(ts: float) -> int:
            return int(round((ts - self.origin) * 1e6))

        events: list = []
        num_lanes = max(lanes.values(), default=0)
        names = ["driver"] + [f"tasks-{i}" for i in range(1, num_lanes + 1)]
        for tid, label in enumerate(names):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        for span in sorted(self.spans, key=lambda s: (s.begin, s.span_id)):
            end = span.end if span.end is not None else span.begin
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": micros(span.begin),
                    "dur": max(0, micros(end) - micros(span.begin)),
                    "pid": 1,
                    "tid": tid_of(span),
                    "args": dict(span.args),
                }
            )
        for event in sorted(self.events, key=lambda e: (e.ts, e.event_id)):
            events.append(
                {
                    "name": event.name,
                    "cat": event.kind,
                    "ph": "i",
                    "ts": micros(event.ts),
                    "pid": 1,
                    "tid": 0,
                    "s": "p",
                    "args": dict(event.args),
                }
            )
        return {
            "schemaVersion": TRACE_SCHEMA_VERSION,
            "displayTimeUnit": "ms",
            "traceEvents": events,
        }

    def write_chrome_trace(self, path: str | os.PathLike) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)
            handle.write("\n")
        return os.fspath(path)

    # -------------------------------------------------------------- summary

    def summary(self, top: int = 5) -> str:
        """Human-readable profile: phases, slowest stages, recovery."""
        digest = self.digest()
        lines = [
            "== trace summary ==",
            "spans: {j} jobs, {s} stages, {t} tasks, {a} attempts, "
            "{p} phase spans".format(
                j=digest["num_jobs"],
                s=digest["num_stages"],
                t=digest["num_tasks"],
                a=digest["num_attempts"],
                p=digest["span_counts"].get("phase", 0),
            ),
        ]
        phase_spans = self.spans_of("phase")
        if phase_spans:
            top_level = [s for s in phase_spans if not any(
                p.span_id == s.parent_id for p in phase_spans
            )]
            lines.append(
                "phases: "
                + " | ".join(
                    f"{s.name} {s.duration or 0.0:.3f}s" for s in top_level
                )
            )
        stage_spans = sorted(
            self.spans_of("stage"),
            key=lambda s: s.duration or 0.0,
            reverse=True,
        )
        if stage_spans:
            lines.append(f"top {min(top, len(stage_spans))} stages by wall time:")
            for span in stage_spans[:top]:
                stats = span.args.get("task_stats", {})
                lines.append(
                    "  {name:<28s} {wall:8.3f}s  {tasks:>3} tasks  "
                    "skew {skew:4.2f}  p95 {p95:.3f}s  "
                    "{records} recs  {bytes} B shuffled".format(
                        name=span.name,
                        wall=span.duration or 0.0,
                        tasks=span.args.get("tasks", 0),
                        skew=span.args.get("skew_ratio", 1.0),
                        p95=stats.get("p95", 0.0),
                        records=span.args.get("shuffle_records", 0),
                        bytes=span.args.get("shuffle_bytes", 0),
                    )
                )
        totals = {
            "retries": 0,
            "chaos_faults": 0,
            "speculative_wins": 0,
            "worker_respawns": 0,
        }
        for span in self.spans_of("stage"):
            for key in totals:
                totals[key] += span.args.get(key, 0)
        lines.append(
            "recovery: retries={retries} chaos_faults={chaos_faults} "
            "speculative_wins={speculative_wins} "
            "respawns={worker_respawns} recomputes={recomputes} "
            "fallbacks={fallbacks}".format(
                recomputes=len(self.events_of("recovery")),
                fallbacks=len(self.events_of("fallback")),
                **totals,
            )
        )
        return "\n".join(lines)


@contextmanager
def phase_scope(ctx, name: str, phase_seconds: dict | None = None):
    """Time one driver-side algorithm phase, tracing it when enabled.

    Replaces the joins' hand-rolled ``start = perf_counter(); ...;
    phase_seconds[name] = perf_counter() - start`` blocks: the elapsed
    time is accumulated into ``phase_seconds`` (when given — trace-only
    sub-phases such as VJ's group/verify pass ``None`` so
    ``JoinResult.total_seconds`` does not double-count), and a ``phase``
    span is emitted when the context carries a tracer.
    """
    tracer = getattr(ctx, "tracer", None)
    span = tracer.begin(name, "phase") if tracer is not None else None
    start = perf_counter()
    try:
        yield
    finally:
        elapsed = perf_counter() - start
        if phase_seconds is not None:
            phase_seconds[name] = phase_seconds.get(name, 0.0) + elapsed
        if tracer is not None:
            tracer.end(span)


def make_tracer(value) -> Tracer | None:
    """Resolve ``Context(tracer=...)``: a Tracer, True/False, or None.

    ``None`` consults the ``REPRO_TRACE`` environment variable so whole
    test suites (the CI ``trace-check`` job) can run traced without code
    changes.
    """
    if isinstance(value, Tracer):
        return value
    if value is None:
        value = bool(os.environ.get("REPRO_TRACE"))
    return Tracer() if value else None
