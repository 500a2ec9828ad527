"""Execution metrics collected by the mini-Spark scheduler.

Every job records, per stage, the wall-clock duration of each task, the
record counts flowing through, and — for shuffle map stages — the
estimated pickled size of what crossed the (simulated) wire
(``shuffle_bytes``, stride-sampled by the scheduler).  Broadcast traffic
is accounted separately in ``broadcast_bytes`` — broadcast handles
serialize without their payloads inside the estimator (see
:mod:`repro.minispark.broadcast`), so ``shuffle_bytes`` measures shuffle
records only.  The measurements serve two purposes:

* they are the raw material of the :class:`repro.minispark.cluster
  .ClusterModel`, which replays the task durations onto a configurable
  number of executor slots to estimate what the job would cost on a real
  cluster of a given size (this is how the node-scaling experiment of the
  paper, Figure 7, is reproduced without physical nodes);
* the benchmark harness reports them alongside measured wall time so that
  skew effects (a few giant tasks dominating a stage) stay visible — the
  phenomenon CL-P's repartitioning targets.

Tasks may run concurrently (``Context(executor="threads"|"processes")``),
so two durations exist per stage: ``task_seconds`` — each task's own
compute time, measured inside the worker and therefore still the valid
input for the cluster cost model's replay — and ``wall_seconds``, the
stage's measured elapsed time on the local machine.  Serially these
coincide (minus scheduling overhead); under a parallel backend their ratio
is the locally realized speedup.  ``JobMetrics`` records which executor
and worker count produced the numbers.

Retried tasks keep the two views apart: ``task_seconds`` holds exactly
one entry per task — the *final* attempt's duration, overwriting earlier
failed tries so skew stats and the cost model's compute replay see clean
per-partition work — while ``attempt_seconds`` keeps every attempt
(failed ones included).  The difference,
:attr:`StageMetrics.failed_attempt_seconds`, is the compute burned on
recovery and is charged separately by the cluster model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Mirrors ``numpy.percentile(..., method="linear")`` for the small
    duration lists this module sees, without importing numpy here.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


@dataclass
class StageMetrics:
    """Measurements of one stage (one shuffle map phase or a result stage)."""

    name: str
    task_seconds: list = field(default_factory=list)
    attempt_seconds: list = field(default_factory=list)
    records_in: int = 0
    records_out: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    task_failures: int = 0
    wall_seconds: float = 0.0
    # --- recovery accounting (see repro.minispark.chaos) -------------
    retries: int = 0  # failed attempts that were given another attempt
    backoff_seconds: float = 0.0  # total seconds slept between attempts
    chaos_faults: int = 0  # transient failures injected by a FaultPlan
    speculative_launched: int = 0  # tasks that got a duplicate attempt
    speculative_wins: int = 0  # duplicates that finished first
    worker_respawns: int = 0  # dead workers respawned (processes backend)
    # --- out-of-core shuffle (see repro.minispark.spill) -------------
    spilled_bytes: int = 0  # segment bytes this stage wrote to disk
    spill_files: int = 0  # segment files this stage wrote
    spill_read_retries: int = 0  # transient re-opens while reading spills
    # --- broadcasts (see repro.minispark.broadcast) -------------------
    broadcast_bytes: int = 0  # pickled handle bytes of the referenced broadcasts
    broadcast_handles: int = 0  # broadcast handles this stage's closures reference
    # --- accumulator channel (see repro.minispark.accumulators) ------
    stats_deltas_merged: int = 0  # winning-attempt deltas folded in
    stats_deltas_deduped: int = 0  # repeats of an already-merged scope
    stats_deltas_discarded: int = 0  # failed attempts + speculation losers

    @property
    def num_tasks(self) -> int:
        return len(self.task_seconds)

    @property
    def num_attempts(self) -> int:
        """Every attempt that ran, failed tries included.

        Equals ``num_tasks + task_failures`` on a stage whose tasks all
        eventually succeeded.
        """
        return len(self.attempt_seconds)

    @property
    def total_task_seconds(self) -> float:
        return sum(self.task_seconds)

    @property
    def total_attempt_seconds(self) -> float:
        return sum(self.attempt_seconds)

    @property
    def failed_attempt_seconds(self) -> float:
        """Compute seconds burned on attempts that did not produce the value."""
        return max(0.0, self.total_attempt_seconds - self.total_task_seconds)

    @property
    def max_task_seconds(self) -> float:
        return max(self.task_seconds, default=0.0)

    def duration_stats(self) -> dict:
        """Partition-skew stats of final-attempt task durations."""
        return {
            "min": min(self.task_seconds, default=0.0),
            "median": percentile(self.task_seconds, 50.0),
            "p95": percentile(self.task_seconds, 95.0),
            "max": self.max_task_seconds,
        }

    def skew_ratio(self) -> float:
        """Max-over-mean task duration — 1.0 means perfectly balanced."""
        if not self.task_seconds:
            return 1.0
        mean = self.total_task_seconds / len(self.task_seconds)
        if mean == 0.0:
            return 1.0
        return self.max_task_seconds / mean

    def local_speedup(self) -> float:
        """Sum-of-task-seconds over stage wall time.

        1.0 means no overlap (serial); values toward the worker count mean
        the backend actually ran tasks concurrently.  Returns 1.0 when the
        stage is too fast to measure.
        """
        if self.wall_seconds <= 0.0 or not self.task_seconds:
            return 1.0
        return self.total_task_seconds / self.wall_seconds


@dataclass
class JobMetrics:
    """All stages of one action (job), in execution order."""

    name: str = "job"
    stages: list = field(default_factory=list)
    executor: str = "serial"
    max_workers: int = 1
    stages_recomputed: int = 0  # lineage recoveries of lost/corrupt shuffles

    def new_stage(self, name: str) -> StageMetrics:
        stage = StageMetrics(name)
        self.stages.append(stage)
        return stage

    @property
    def total_task_seconds(self) -> float:
        return sum(s.total_task_seconds for s in self.stages)

    @property
    def total_wall_seconds(self) -> float:
        """Measured elapsed time of the job (stages run back to back)."""
        return sum(s.wall_seconds for s in self.stages)

    @property
    def total_shuffle_records(self) -> int:
        return sum(s.shuffle_records for s in self.stages)

    @property
    def total_shuffle_bytes(self) -> int:
        return sum(s.shuffle_bytes for s in self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    @property
    def num_attempts(self) -> int:
        return sum(s.num_attempts for s in self.stages)

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.stages)

    @property
    def total_backoff_seconds(self) -> float:
        return sum(s.backoff_seconds for s in self.stages)

    @property
    def total_chaos_faults(self) -> int:
        return sum(s.chaos_faults for s in self.stages)

    @property
    def total_speculative_launched(self) -> int:
        return sum(s.speculative_launched for s in self.stages)

    @property
    def total_speculative_wins(self) -> int:
        return sum(s.speculative_wins for s in self.stages)

    @property
    def total_worker_respawns(self) -> int:
        return sum(s.worker_respawns for s in self.stages)

    @property
    def total_broadcast_bytes(self) -> int:
        return sum(s.broadcast_bytes for s in self.stages)

    @property
    def total_broadcast_handles(self) -> int:
        return sum(s.broadcast_handles for s in self.stages)

    @property
    def total_spilled_bytes(self) -> int:
        return sum(s.spilled_bytes for s in self.stages)

    @property
    def total_spill_files(self) -> int:
        return sum(s.spill_files for s in self.stages)

    @property
    def total_spill_read_retries(self) -> int:
        return sum(s.spill_read_retries for s in self.stages)

    @property
    def total_stats_deltas_merged(self) -> int:
        return sum(s.stats_deltas_merged for s in self.stages)

    @property
    def total_stats_deltas_deduped(self) -> int:
        return sum(s.stats_deltas_deduped for s in self.stages)

    @property
    def total_stats_deltas_discarded(self) -> int:
        return sum(s.stats_deltas_discarded for s in self.stages)

    def merge(self, other: "JobMetrics") -> None:
        """Append another job's stages (used to aggregate multi-job algorithms)."""
        self.stages.extend(other.stages)
        self.stages_recomputed += other.stages_recomputed


@dataclass
class MetricsCollector:
    """Accumulates the jobs a :class:`repro.minispark.context.Context` ran.

    ``fallbacks`` records executor degradations (processes -> threads ->
    serial) performed after a backend was marked broken; each entry is a
    dict with ``from``, ``to``, and ``reason``.
    """

    jobs: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)

    def add(self, job: JobMetrics) -> None:
        self.jobs.append(job)

    def record_fallback(self, old: str, new: str, reason: str) -> None:
        self.fallbacks.append({"from": old, "to": new, "reason": reason})

    def combined(self, name: str = "all-jobs") -> JobMetrics:
        total = JobMetrics(name)
        for job in self.jobs:
            total.merge(job)
        return total

    def recovery_summary(self) -> dict:
        """Every recovery event across all recorded jobs, as plain data.

        This is what the bench harness stamps into ``BENCH_*.json`` and
        what the chaos soak asserts on: a fault-free run is all zeros.
        """
        total = self.combined()
        return {
            "task_failures": sum(
                s.task_failures for j in self.jobs for s in j.stages
            ),
            "retries": total.total_retries,
            "backoff_seconds": total.total_backoff_seconds,
            "chaos_faults": total.total_chaos_faults,
            "speculative_launched": total.total_speculative_launched,
            "speculative_wins": total.total_speculative_wins,
            "worker_respawns": total.total_worker_respawns,
            "stages_recomputed": total.stages_recomputed,
            # Counter deltas thrown away because their attempt lost
            # (failed or was out-speculated) — dedup of recomputed
            # scopes is *not* listed here because a fault-free
            # processes run legitimately recomputes cached partitions.
            "stats_deltas_discarded": total.total_stats_deltas_discarded,
            "executor_fallbacks": list(self.fallbacks),
        }

    def reset(self) -> None:
        self.jobs.clear()
        self.fallbacks.clear()
