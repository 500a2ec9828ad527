"""Context: entry point of the mini-Spark engine (``SparkContext`` analog)."""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Iterable

from .accumulators import StatsChannel
from .broadcast import Broadcast, BroadcastManager
from .chaos import FaultPlan, RetryPolicy, SpeculationPolicy
from .cluster import ClusterConfig, ClusterModel, CostModel
from .executors import TaskExecutor, make_executor
from .metrics import MetricsCollector
from .rdd import ParallelCollectionRDD, RDD
from .scheduler import Scheduler
from .spill import SpillManager
from .tracing import Tracer, make_tracer


class Accumulator:
    """A write-only-from-tasks counter (``sc.accumulator`` analog).

    The join algorithms use accumulators for candidate/verification counts
    so that instrumentation flows the same way it would on a cluster.

    ``add`` is guarded by a lock: with the ``threads`` executor several
    tasks update one accumulator concurrently and a plain ``+=``
    (read-modify-write) would silently drop counts.  Under the fork-based
    ``processes`` executor updates happen in the child and — like closure
    mutation on real Spark executors — do not reach the driver.
    """

    __slots__ = ("value", "_lock")

    def __init__(self, initial=0):
        self.value = initial
        self._lock = threading.Lock()

    def add(self, amount=1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Accumulator({self.value})"


class Context:
    """Owns the scheduler, metrics, and cluster configuration.

    Parameters
    ----------
    default_parallelism:
        Partition count used when a wide transformation does not specify
        one.  The paper uses 286 partitions in most experiments.
    cluster:
        Shape of the simulated cluster (defaults to the paper's Table 3
        configuration); used by :meth:`simulated_seconds`.
    cost_model:
        Constants of the makespan simulation.
    task_retries:
        How often a failed task is retried before the job fails
        (``spark.task.maxFailures - 1``; Spark's default is 3 retries,
        ours is 0 so tests see errors immediately unless asked).
    executor:
        Task execution backend: ``"serial"`` (default), ``"threads"``, or
        ``"processes"`` — see :mod:`repro.minispark.executors`.  An
        already-built :class:`~repro.minispark.executors.TaskExecutor`
        is also accepted.
    max_workers:
        Concurrent task slots of the parallel backends (defaults to the
        CPU count; ignored by ``"serial"``).
    shuffle_byte_sample:
        How many records per shuffle bucket the scheduler pickles to
        estimate ``StageMetrics.shuffle_bytes`` (stride sampling; see
        :func:`repro.minispark.scheduler.estimate_shuffle_bytes`).
        The same sampling drives the shuffle integrity checksum that
        lineage recovery validates.  ``0`` disables byte accounting and
        degrades the checksum to bucket lengths only.
    chaos:
        A seeded :class:`~repro.minispark.chaos.FaultPlan` to inject at
        task boundaries (transient exceptions, stragglers, worker kills,
        shuffle loss).  ``None`` (default) injects nothing.
    retry_policy:
        Seeded exponential-backoff-with-jitter waits between retry
        attempts (:class:`~repro.minispark.chaos.RetryPolicy`); defaults
        to millisecond-scale waits.
    speculation:
        A :class:`~repro.minispark.chaos.SpeculationPolicy` enabling
        duplicate attempts for straggling tasks on the threads and
        processes backends.  ``None`` (default) disables speculation.
    max_worker_respawns:
        Per-stage budget of dead-worker respawns on the processes
        backend before the stage raises
        :class:`~repro.minispark.chaos.ExecutorBrokenError`.
    memory_budget_bytes:
        Shuffle memory budget for out-of-core execution
        (:mod:`repro.minispark.spill`).  When set, materialized shuffle
        buckets whose estimated pickled size would push the tracked
        total over the budget are written to CRC32-checksummed segment
        files and streamed back on read.  ``None`` (default) keeps every
        bucket in memory — the historical behavior.
    spill_dir:
        Parent directory for spill segment files (a unique subdirectory
        is created inside it and removed on cleanup).  Defaults to the
        system temp directory; requires ``memory_budget_bytes``.
    tracer:
        Structured tracing (:mod:`repro.minispark.tracing`).  Pass a
        :class:`~repro.minispark.tracing.Tracer` to share one across
        contexts, ``True`` to create a fresh one, or ``False`` to
        disable.  The default ``None`` consults the ``REPRO_TRACE``
        environment variable, so whole test suites can run traced.
    """

    def __init__(
        self,
        default_parallelism: int = 8,
        cluster: ClusterConfig | None = None,
        cost_model: CostModel | None = None,
        task_retries: int = 0,
        executor: str | TaskExecutor = "serial",
        max_workers: int | None = None,
        shuffle_byte_sample: int = 64,
        chaos: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        speculation: SpeculationPolicy | None = None,
        max_worker_respawns: int = 4,
        tracer: Tracer | bool | None = None,
        memory_budget_bytes: int | None = None,
        spill_dir: str | os.PathLike | None = None,
    ):
        if default_parallelism <= 0:
            raise ValueError(
                f"default_parallelism must be positive, got {default_parallelism}"
            )
        if task_retries < 0:
            raise ValueError(f"task_retries must be >= 0, got {task_retries}")
        if shuffle_byte_sample < 0:
            raise ValueError(
                f"shuffle_byte_sample must be >= 0, got {shuffle_byte_sample}"
            )
        if max_worker_respawns < 0:
            raise ValueError(
                f"max_worker_respawns must be >= 0, got {max_worker_respawns}"
            )
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError(
                f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
            )
        if spill_dir is not None and memory_budget_bytes is None:
            raise ValueError(
                "spill_dir requires memory_budget_bytes — without a budget "
                "nothing ever spills"
            )
        self.default_parallelism = default_parallelism
        self.task_retries = task_retries
        self.shuffle_byte_sample = shuffle_byte_sample
        self.chaos = chaos
        self.retry_policy = retry_policy or RetryPolicy()
        self.speculation = speculation
        self.max_worker_respawns = max_worker_respawns
        self.cluster = cluster or ClusterConfig()
        self.cost_model = cost_model or CostModel()
        self.executor = make_executor(executor, max_workers)
        self.tracer = make_tracer(tracer)
        self.metrics = MetricsCollector()
        self.memory_budget_bytes = memory_budget_bytes
        self.spill: SpillManager | None = (
            SpillManager(
                memory_budget_bytes,
                spill_dir,
                chaos=chaos,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            if memory_budget_bytes is not None
            else None
        )
        #: Managed broadcast registry (:mod:`repro.minispark.broadcast`).
        self.broadcasts = BroadcastManager()
        self.scheduler = Scheduler(self)
        #: Live accumulator channels, by id — weak so a channel vanishes
        #: with the join that created it (its value object outlives it).
        self.stats_channels: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )
        #: Every RDD ever cached on this context, for leak accounting —
        #: weak so unreferenced lineage graphs can still be collected.
        self._cached_rdds: weakref.WeakSet = weakref.WeakSet()

    def parallelize(
        self, data: Iterable, num_partitions: int | None = None
    ) -> RDD:
        """Distribute an in-memory collection into an RDD."""
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_partitions)

    def text_file(
        self, path: str | os.PathLike, num_partitions: int | None = None
    ) -> RDD:
        """Read a text file as an RDD of lines (without trailing newlines)."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
        return self.parallelize(lines, num_partitions)

    def broadcast(self, value) -> Broadcast:
        """Publish a read-only value to every task (``sc.broadcast``).

        Managed by the context's :class:`BroadcastManager`: repeated
        broadcasts of the *same object* return the same handle (identity
        dedup), and tasks resolve the handle through the process-local
        registry instead of carrying a payload copy.
        """
        return self.broadcasts.broadcast(value)

    def accumulator(self, initial=0) -> Accumulator:
        return Accumulator(initial)

    def stats_channel(self, create: Callable, value=None) -> StatsChannel:
        """Create an exact worker-side counter channel (Spark accumulator).

        ``create`` builds empty delta objects (any type with a
        field-wise ``merge(other)``); ``value`` optionally supplies the
        driver-side object the winning deltas merge into, so callers can
        keep a direct reference to the merged result.  Unlike
        :class:`Accumulator`, increments made inside tasks are exact on
        every backend — forked workers ship their deltas back through
        ``TaskOutcome``, and the scheduler merges only winning attempts,
        once per logical partition (see
        :mod:`repro.minispark.accumulators`).
        """
        channel = StatsChannel(create, value)
        self.stats_channels[channel.channel_id] = channel
        return channel

    def register_cached_rdd(self, rdd: RDD) -> None:
        """Track an RDD whose partitions may be pinned (``cache()`` hook)."""
        self._cached_rdds.add(rdd)

    def cached_partition_count(self) -> int:
        """How many partitions are pinned in memory right now.

        Joins unpersist their intermediate caches on completion; this
        returning zero after a join is the no-leak invariant the test
        suite checks.
        """
        return sum(
            len(rdd._cache_store) for rdd in self._cached_rdds if rdd._cached
        )

    def degrade_executor(self, name: str, reason: str = "") -> None:
        """Swap the task backend for a simpler one after repeated failure.

        Used by :func:`repro.joins.api.similarity_join` when a backend
        raises :class:`~repro.minispark.chaos.ExecutorBrokenError`
        (processes -> threads -> serial).  The fallback is recorded in
        ``metrics.fallbacks`` so recovery stays visible in bench output.
        """
        old = self.executor.name
        self.executor = make_executor(name, self.executor.max_workers)
        self.metrics.record_fallback(old, name, reason)
        if self.tracer is not None:
            self.tracer.instant(
                "executor_fallback",
                "fallback",
                **{"from": old, "to": name, "reason": reason},
            )

    def spill_summary(self) -> dict:
        """Lifetime out-of-core accounting, or ``{}`` without a budget."""
        if self.spill is None:
            return {}
        return self.spill.summary()

    def broadcast_summary(self) -> dict:
        """Lifetime broadcast accounting (broadcasts, dedup hits, tripwire)."""
        return self.broadcasts.summary()

    def simulated_seconds(self, cluster: ClusterConfig | None = None) -> float:
        """Replay all recorded jobs on a cluster shape (defaults to own)."""
        model = ClusterModel(cluster or self.cluster, self.cost_model)
        return sum(model.simulate(job) for job in self.metrics.jobs)

    def reset_metrics(self) -> None:
        self.metrics.reset()
