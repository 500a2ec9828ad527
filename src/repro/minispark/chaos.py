"""Fault injection and recovery policies: the chaos half of "resilient".

The paper's algorithms run on Spark because RDD lineage makes long,
shuffle-heavy joins survivable on flaky clusters.  This module provides
the pieces minispark needs to reproduce that property *and to prove it*:

:class:`FaultPlan` (alias :data:`ChaosPolicy`)
    A seeded description of the faults to inject — transient task
    exceptions, stragglers (configurable slowdowns), hard worker death on
    the processes backend, and loss of materialized shuffle outputs.
    Every decision is a pure function of ``(seed, kind, stage, task,
    attempt)``; no wall clock, no global RNG state, so a chaos run is
    exactly reproducible and a recovered run must be byte-identical to a
    fault-free one.

:class:`RetryPolicy`
    Seeded exponential backoff with jitter between retry attempts
    (decorrelated waits are what keep real clusters from retry storms;
    here the waits are milliseconds but land in the metrics and the
    cluster cost model).

:class:`SpeculationPolicy`
    When a task runs longer than ``multiplier`` x the median completed
    task, the executor launches a duplicate and the first finished
    attempt wins.  Tasks are deterministic pure computations, so either
    attempt produces the same value and results stay byte-identical to a
    serial run; only the metrics record who won.

:class:`TaskPolicy`
    The bundle the scheduler hands to an executor for one stage: retry
    budget, backoff, chaos plan, speculation, and the worker-respawn
    budget of the processes backend.

Error classification: :func:`is_transient` separates errors that a retry
can plausibly fix (injected chaos, worker loss, I/O-ish failures, and —
matching Spark's ``spark.task.maxFailures`` behaviour — generic runtime
errors) from deterministic programming errors (``TypeError``,
``NameError``, ...) that would fail identically on every attempt and are
therefore failed fast without burning the retry budget.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass, field

#: Exit code a chaos-killed worker process dies with (mirrors SIGKILL's
#: 128+9 so logs read like a real OOM-killer victim).
CHAOS_KILL_EXIT_CODE = 137


class ChaosError(RuntimeError):
    """A transient task failure injected by a :class:`FaultPlan`."""


class WorkerLostError(RuntimeError):
    """A forked worker process died before reporting its tasks."""


class ExecutorBrokenError(RuntimeError):
    """A backend died repeatedly and cannot finish the stage.

    Raised once the worker-respawn budget is exhausted; callers such as
    :func:`repro.joins.api.similarity_join` catch it to degrade to a
    simpler backend (processes -> threads -> serial).
    """


class ChaosDiskError(OSError):
    """An injected disk failure on a spill-segment write (fake ENOSPC).

    Subclasses ``OSError`` so untouched code paths treat it like the real
    thing, but the spill manager can tell it apart: injected write
    errors are retried (the seeded cap guarantees a clean attempt),
    while a genuine ``OSError`` permanently degrades to in-memory-only.
    """

    def __init__(self, key: str):
        super().__init__(errno.ENOSPC, f"chaos: no space left writing {key}")


#: Deterministic programming errors a retry cannot fix.
FATAL_ERRORS = (
    TypeError,
    AttributeError,
    NameError,
    ImportError,
    SyntaxError,
    NotImplementedError,
    RecursionError,
)


def is_transient(error: BaseException) -> bool:
    """Whether retrying the task could plausibly succeed."""
    if isinstance(error, (ChaosError, WorkerLostError)):
        return True
    if isinstance(error, FATAL_ERRORS):
        return False
    return isinstance(error, Exception)


def _roll(seed: int, kind: str, stage: str, index, attempt: int) -> float:
    """One deterministic uniform draw for a (kind, stage, task, attempt).

    String seeding hashes the whole key (sha512 under the hood), so
    decisions are independent across tasks, attempts, and fault kinds,
    yet exactly reproducible for a given plan seed.
    """
    return random.Random(f"{seed}|{kind}|{stage}|{index}|{attempt}").random()


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject at task boundaries.

    Rates are per *attempt* probabilities in ``[0, 1]``.  The
    ``max_faults_per_task`` cap bounds how many attempts of one task can
    be faulted, which is what makes a chaos run provably completable:
    give the context ``task_retries >= max_faults_per_task`` and every
    task has a guaranteed clean attempt left.

    ``kill_rate`` only applies on the processes backend (a forked worker
    calls ``os._exit`` at a task boundary); the serial and threads
    backends ignore it, since killing them would kill the driver.
    ``shuffle_loss_rate`` marks an already-materialized shuffle's outputs
    as lost when a later job revisits them, exercising the scheduler's
    lineage-based stage recomputation (at most once per shuffle).

    The disk-fault family targets the spill subsystem:
    ``spill_fault_rate`` damages an already-written spill segment
    (deletion, byte corruption, or truncation — the kind is a second
    seeded draw) at most once per segment, right before the scheduler
    revalidates the shuffle, so checksum verification catches it and
    lineage recomputes the stage.  ``spill_write_error_rate`` makes a
    segment *write* raise an injected :class:`ChaosDiskError` (fake
    ENOSPC); the spill manager retries, and the per-key
    ``max_faults_per_task`` cap guarantees a clean attempt.
    """

    seed: int = 0
    transient_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_seconds: float = 0.05
    kill_rate: float = 0.0
    shuffle_loss_rate: float = 0.0
    spill_fault_rate: float = 0.0
    spill_write_error_rate: float = 0.0
    max_faults_per_task: int = 2

    def __post_init__(self):
        for name in ("transient_rate", "straggler_rate", "kill_rate",
                     "shuffle_loss_rate", "spill_fault_rate",
                     "spill_write_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_seconds < 0.0:
            raise ValueError(
                f"straggler_seconds must be >= 0, got {self.straggler_seconds}"
            )
        if self.max_faults_per_task < 0:
            raise ValueError(
                "max_faults_per_task must be >= 0, got "
                f"{self.max_faults_per_task}"
            )

    # ------------------------------------------------------------ decisions

    def straggler_delay(self, stage: str, index: int, attempt: int) -> float:
        """Seconds this attempt is slowed down (0.0 for a clean attempt)."""
        if attempt >= self.max_faults_per_task:
            return 0.0
        if _roll(self.seed, "straggle", stage, index, attempt) < self.straggler_rate:
            return self.straggler_seconds
        return 0.0

    def transient_fault(self, stage: str, index: int, attempt: int) -> bool:
        """Whether this attempt raises an injected :class:`ChaosError`."""
        if attempt >= self.max_faults_per_task:
            return False
        return _roll(self.seed, "transient", stage, index, attempt) < self.transient_rate

    def should_kill(self, stage: str, index: int, restart: int) -> bool:
        """Whether a forked worker dies before computing this task.

        ``restart`` counts how often the task already killed a worker, so
        a respawned worker re-rolls and the cap guarantees progress.
        """
        if restart >= self.max_faults_per_task:
            return False
        return _roll(self.seed, "kill", stage, index, restart) < self.kill_rate

    def shuffle_lost(self, dep_key: str, epoch: int) -> bool:
        """Whether a materialized shuffle's outputs go missing (once)."""
        if epoch >= 1:
            return False
        return _roll(self.seed, "shuffle-loss", dep_key, 0, epoch) < self.shuffle_loss_rate

    def spill_fault(self, segment_key: str, epoch: int) -> str | None:
        """Disk-fault kind to inflict on a spilled segment, or ``None``.

        At most one fault per segment (``epoch >= 1`` is always clean),
        mirroring :meth:`shuffle_lost`'s completability guarantee: the
        recomputed stage writes fresh segments with fresh keys, and the
        original segment never gets damaged twice.
        """
        if epoch >= 1:
            return None
        if _roll(self.seed, "spill-fault", segment_key, 0, epoch) >= self.spill_fault_rate:
            return None
        kinds = ("delete", "corrupt", "truncate")
        pick = _roll(self.seed, "spill-kind", segment_key, 0, epoch)
        return kinds[min(int(pick * len(kinds)), len(kinds) - 1)]

    def spill_write_error(self, key: str, attempt: int) -> bool:
        """Whether this spill-segment write raises a fake ENOSPC.

        ``attempt`` counts faults already injected for this key; the
        ``max_faults_per_task`` cap bounds them so the write loop always
        reaches a clean attempt.
        """
        if attempt >= self.max_faults_per_task:
            return False
        return _roll(self.seed, "spill-write", key, 0, attempt) < self.spill_write_error_rate


#: The issue-tracker name for the same thing.
ChaosPolicy = FaultPlan


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter between retry attempts.

    Wait for attempt ``a`` is ``min(max, base * factor**a)`` scaled down
    by up to ``jitter`` (a deterministic per-(stage, task, attempt) draw),
    the classic decorrelated-jitter shape.  ``backoff_base_seconds <= 0``
    disables waiting entirely.  Defaults are laptop-scale: milliseconds,
    so test suites stay fast while the waits remain visible in
    ``StageMetrics.backoff_seconds`` and the cluster cost model.
    """

    backoff_base_seconds: float = 0.002
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.25
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_seconds(self, stage: str, index: int, attempt: int) -> float:
        if self.backoff_base_seconds <= 0.0:
            return 0.0
        raw = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * self.backoff_factor ** attempt,
        )
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * _roll(self.seed, "backoff", stage, index, attempt))


@dataclass(frozen=True)
class SpeculationPolicy:
    """When and how executors duplicate straggler tasks.

    A running task becomes a speculation candidate once its elapsed time
    exceeds ``max(min_seconds, multiplier * median completed task time)``
    (Spark's ``spark.speculation.multiplier`` heuristic).  At most one
    duplicate per task is launched; the first finished attempt wins.
    Speculative attempts draw their chaos decisions from a disjoint
    attempt range, so a chaos-straggled task's duplicate is (typically)
    clean — exactly the scenario speculation exists for.
    """

    multiplier: float = 4.0
    min_seconds: float = 0.2
    poll_seconds: float = 0.02

    def __post_init__(self):
        if self.multiplier <= 0.0:
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.min_seconds < 0.0:
            raise ValueError(f"min_seconds must be >= 0, got {self.min_seconds}")
        if self.poll_seconds <= 0.0:
            raise ValueError(f"poll_seconds must be > 0, got {self.poll_seconds}")

    def threshold(self, completed_seconds: list) -> float:
        """Elapsed time beyond which a running task gets a duplicate."""
        if not completed_seconds:
            return self.min_seconds
        ordered = sorted(completed_seconds)
        median = ordered[len(ordered) // 2]
        return max(self.min_seconds, self.multiplier * median)


@dataclass
class TaskPolicy:
    """Everything an executor needs to run one stage's tasks resiliently."""

    retries: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chaos: FaultPlan | None = None
    speculation: SpeculationPolicy | None = None
    stage: str = "stage"
    max_worker_respawns: int = 4

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.max_worker_respawns < 0:
            raise ValueError(
                "max_worker_respawns must be >= 0, got "
                f"{self.max_worker_respawns}"
            )

    @classmethod
    def of(cls, value) -> "TaskPolicy":
        """Normalize an ``int`` retry budget (the legacy call shape)."""
        if isinstance(value, TaskPolicy):
            return value
        return cls(retries=int(value))

    def speculative_attempt_base(self) -> int:
        """First attempt number of a speculative duplicate.

        Disjoint from the primary's ``0..retries`` range so chaos rolls
        differently for the duplicate.
        """
        return self.retries + 1
