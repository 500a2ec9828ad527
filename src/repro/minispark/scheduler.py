"""Stage-splitting scheduler: materializes shuffles and times every task.

``run_job`` walks the lineage of the action's RDD, finds every
:class:`~repro.minispark.rdd.ShuffleDependency` that has not been
materialized yet, and executes the corresponding *map stage*: each parent
partition is computed (pulling through any fused narrow transformations,
exactly like Spark pipelining), its records are routed to output buckets by
the dependency's partitioner, and — when an aggregator is present —
combined map-side first.  Finally the *result stage* computes the action
RDD's own partitions.

A stage's partition tasks are submitted together to the context's
:class:`~repro.minispark.executors.TaskExecutor` (serial, threads, or
forked processes — ``Context(executor=...)``), wrapped in a
:class:`~repro.minispark.chaos.TaskPolicy` carrying the retry budget,
seeded backoff, chaos plan, and speculation settings.  Results, metrics,
and shuffle bucket merges are always processed in partition order, so
every backend — including one that retried, speculated, or respawned
workers along the way — produces identical outputs and deterministic
metrics; stages still synchronize at shuffles, exactly as on Spark.

Fault tolerance of materialized shuffles: each shuffle's outputs are
checksummed at materialization (stride-sampled, like the byte estimate).
Before an already-materialized shuffle is reused by a later job, the
scheduler revalidates it; outputs that were marked lost (chaos, explicit
``mark_lost()``) or whose checksum no longer matches are recomputed from
lineage — the job records a ``stages_recomputed`` event instead of
failing.  This is the RDD recovery story of the paper's Spark deployment,
reproduced end to end.

Out-of-core execution: when the context carries a memory budget
(``Context(memory_budget_bytes=...)``), merged shuffle buckets that would
push the tracked in-memory footprint over the budget are written to
CRC32-checksummed segment files instead (:mod:`repro.minispark.spill`)
and streamed back on read.  Spilled buckets participate in the same
validation/recovery cycle — with *exact* full-file checksums instead of
stride samples — so a damaged spill file is recomputed from lineage
exactly like a lost in-memory shuffle.

Broadcast accounting: before each stage launches, a closure scan
(:func:`repro.minispark.broadcast.find_broadcasts`) collects the
broadcast handles the stage's tasks can reach and charges their handle
bytes into ``StageMetrics.broadcast_bytes`` (workers resolve the
payloads through the inherited registry).  ``shuffle_bytes`` stays pure
shuffle traffic: the stride-sampled estimator and the shuffle checksum
serialize broadcast handles without payloads (``handles_only``).

Cached partitions: a ``cache()``d partition first computed inside a
forked worker comes back inside that task's ``TaskOutcome``; the
scheduler pins it in the driver after the stage
(:func:`repro.minispark.rdd.install_cache_fills`), so the next stage's
fork inherits it and no backend computes a cached partition twice.

Every task attempt is timed with ``perf_counter``; the durations, record
counts, shuffle volumes, recovery events, and each stage's wall-clock time
land in a :class:`~repro.minispark.metrics.JobMetrics` that the cluster
cost model replays to estimate multi-node wall time.  A retried task
contributes its *final* attempt as the task's wall seconds
(``StageMetrics.task_seconds``) — earlier failed tries live only in
``attempt_seconds`` — so skew stats and the cost model's compute replay
are not inflated by recovery work.

When the context carries a :class:`~repro.minispark.tracing.Tracer`, the
scheduler additionally emits one *job* span per action, one *stage* span
per map/result stage (annotated with task counts, shuffle volumes, and
skew stats), and synthesizes *task*/*attempt* spans from the absolute
attempt windows every executor's retry loop measures — plus instant
events for injected shuffle loss and lineage recomputation.
"""

from __future__ import annotations

import pickle
import zlib
from time import perf_counter

from .broadcast import handles_only
from .chaos import TaskPolicy
from .metrics import JobMetrics, StageMetrics
from .rdd import RDD, ShuffleDependency, install_cache_fills
from .spill import SpilledBucket, read_retries_total, sampled_records_bytes

#: Errors that mean "this record cannot be pickled", which is bookkeeping
#: noise for the size estimate — anything else (KeyboardInterrupt,
#: programming errors inside __reduce__) must surface.
_UNPICKLABLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


def estimate_shuffle_bytes(outputs: list, sample: int) -> int:
    """Estimate the pickled size of a shuffle's output buckets.

    Pickling every record would dominate small jobs, so up to ``sample``
    records per bucket are measured at a fixed stride and the mean record
    size is extrapolated to the bucket's full record count — the same
    sampling trade-off Spark makes for its own size estimators.  ``sample
    <= 0`` disables byte accounting for in-memory buckets (contributes
    0); records that refuse to pickle are skipped rather than failing the
    job, since the bytes are bookkeeping, not data flow.

    Spilled buckets need no sampling: their segment files record the
    exact serialized size, which is reported as-is.
    """
    spilled = 0
    memory = []
    for bucket in outputs:
        if isinstance(bucket, SpilledBucket):
            spilled += bucket.nbytes
        else:
            memory.append(bucket)
    return spilled + sampled_records_bytes(memory, sample)


def shuffle_checksum(outputs: list, sample: int) -> int:
    """Integrity fingerprint of a shuffle's materialized buckets.

    For in-memory buckets: CRC32 over every bucket's length plus
    stride-sampled pickled records (the same sampling pattern as
    :func:`estimate_shuffle_bytes`), so validation cost matches
    materialization bookkeeping cost.  Detects lost buckets, truncation,
    and corruption of any sampled record; ``sample <= 0`` degrades to
    the length-only fingerprint.

    Spilled buckets fold their exact per-segment ``(records, nbytes,
    CRC32)`` triples instead — computed over *every* byte at write time,
    so spilled data has no sampling blind spot (validation additionally
    re-reads the files; see ``Scheduler._shuffle_valid``).
    """
    crc = zlib.crc32(repr([len(bucket) for bucket in outputs]).encode())
    # handles_only: a broadcast handle inside a record fingerprints as a
    # stable reference, never as a payload snapshot.
    with handles_only():
        for bucket in outputs:
            if isinstance(bucket, SpilledBucket):
                crc = zlib.crc32(repr(bucket.fingerprint()).encode(), crc)
                continue
            if sample <= 0:
                continue
            size = len(bucket)
            if size == 0:
                continue
            stride = max(1, -(-size // sample))
            for index in range(0, size, stride):
                try:
                    data = pickle.dumps(
                        bucket[index], pickle.HIGHEST_PROTOCOL
                    )
                except _UNPICKLABLE_ERRORS:
                    continue
                crc = zlib.crc32(data, crc)
    return crc


class Scheduler:
    """Executes jobs for one :class:`repro.minispark.context.Context`.

    Tasks are retried up to ``context.task_retries`` times before the job
    fails (Spark's ``spark.task.maxFailures`` behaviour) — the lineage
    information needed to recompute a partition is exactly the RDD graph,
    so a retry is simply another ``iterator(index)`` call.  The retry loop
    runs inside the worker so a failed attempt's partial output never
    leaks, whichever backend executes the task.
    """

    def __init__(self, context):
        self.context = context

    def _charge_broadcasts(self, stage: StageMetrics, roots) -> None:
        """Account broadcast traffic a stage references, before it runs.

        The closure scan finds every :class:`Broadcast` handle reachable
        from the stage's task closures; the broadcast manager charges
        their handle bytes into ``StageMetrics.broadcast_bytes`` — kept
        strictly apart from ``shuffle_bytes``, which only measures
        shuffle records.
        """
        manager = getattr(self.context, "broadcasts", None)
        if manager is None:
            return
        stage.broadcast_bytes, stage.broadcast_handles = (
            manager.charge_stage(roots)
        )

    def _task_policy(self, stage_name: str) -> TaskPolicy:
        """Bundle the context's resilience settings for one stage."""
        ctx = self.context
        return TaskPolicy(
            retries=ctx.task_retries,
            retry=ctx.retry_policy,
            chaos=ctx.chaos,
            speculation=ctx.speculation,
            stage=stage_name,
            max_worker_respawns=ctx.max_worker_respawns,
        )

    def _run_stage(self, stage: StageMetrics, tasks: list) -> list:
        """Run a stage's tasks on the executor; return values in task order.

        Metrics are merged in partition order (attempt durations, failure
        counts, recovery events), the stage's wall-clock duration is
        recorded, and the first failed task's exception — again in
        partition order — is re-raised, matching the serial scheduler's
        error surface.
        """
        executor = self.context.executor
        policy = self._task_policy(stage.name)
        tracer = self.context.tracer
        spill = self.context.spill
        span = tracer.begin(stage.name, "stage") if tracer is not None else None
        stage._trace_span = span  # later annotation (shuffle volumes)
        retries_before = read_retries_total() if spill is not None else 0
        start = perf_counter()
        try:
            outcomes = executor.run_tasks(tasks, policy)
        finally:
            stage.wall_seconds += perf_counter() - start
            if spill is not None:
                # Driver-process view only: forked workers count their
                # retries in their own copy of the module counter.
                stage.spill_read_retries += (
                    read_retries_total() - retries_before
                )
            if tracer is not None:
                tracer.end(span)
        # Pin what forked workers cached before the next stage forks.
        # A shipped partition is complete and deterministic whatever
        # became of the task that computed it, so failed tasks and
        # respawned workers contribute too.  Serial/threads tasks (and
        # driver-side speculative copies) wrote the driver's caches
        # themselves and ship nothing.
        cache_fills = {}
        for outcome in outcomes:
            cache_fills.update(outcome.cache_fills)
        if cache_fills:
            install_cache_fills(self.context._cached_rdds, cache_fills)
        for index, outcome in enumerate(outcomes):
            stage.attempt_seconds.extend(outcome.attempt_seconds)
            if outcome.attempt_seconds:
                # The final attempt *overwrites* earlier failed tries:
                # exactly one wall-seconds entry per task, so skew stats
                # and the cost model replay see clean per-partition work.
                stage.task_seconds.append(outcome.attempt_seconds[-1])
            stage.task_failures += outcome.failures
            stage.retries += (
                outcome.failures if outcome.ok else outcome.failures - 1
            )
            stage.backoff_seconds += outcome.backoff_seconds
            stage.chaos_faults += outcome.chaos_faults
            stage.speculative_launched += 1 if outcome.speculated else 0
            stage.speculative_wins += 1 if outcome.speculative_win else 0
            stage.worker_respawns += outcome.respawns
            self._merge_attempt_stats(stage, index, outcome)
            if tracer is not None:
                self._trace_task(tracer, span, index, outcome)
        if tracer is not None:
            span.annotate(
                tasks=stage.num_tasks,
                attempts=stage.num_attempts,
                task_failures=stage.task_failures,
                retries=stage.retries,
                chaos_faults=stage.chaos_faults,
                speculative_launched=stage.speculative_launched,
                speculative_wins=stage.speculative_wins,
                worker_respawns=stage.worker_respawns,
                stats_deltas_merged=stage.stats_deltas_merged,
                stats_deltas_deduped=stage.stats_deltas_deduped,
                stats_deltas_discarded=stage.stats_deltas_discarded,
                skew_ratio=round(stage.skew_ratio(), 4),
                task_stats={
                    key: round(value, 6)
                    for key, value in stage.duration_stats().items()
                },
            )
            if spill is not None:
                span.annotate(spill_read_retries=stage.spill_read_retries)
            if stage.broadcast_handles:
                span.annotate(
                    broadcast_bytes=stage.broadcast_bytes,
                    broadcast_handles=stage.broadcast_handles,
                )
            if cache_fills:
                span.annotate(
                    cache_partitions_shipped=len(cache_fills),
                    cache_bytes_shipped=sum(map(len, cache_fills.values())),
                )
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
        return [outcome.value for outcome in outcomes]

    def _merge_attempt_stats(self, stage: StageMetrics, index: int,
                             outcome) -> None:
        """Fold one task's accumulator deltas into the driver channels.

        Only the *winning* attempt — the final attempt of a successful
        task — contributes to a channel's exact value, and each logical
        ``(rdd_id, partition)`` scope is merged at most once per channel
        (a deterministic recomputation elsewhere produces an identical
        delta, so dropping the repeat reproduces the fault-free serial
        value).  Failed attempts and speculation losers are folded into
        the channel's ``discarded`` counter instead, mirroring how
        ``task_seconds`` keeps only the final attempt while
        ``attempt_seconds`` keeps the full history.
        """
        channels = self.context.stats_channels
        winner = None
        discarded = list(outcome.discarded_stats)
        if outcome.ok and outcome.attempt_stats:
            winner = outcome.attempt_stats[-1]
            discarded.extend(outcome.attempt_stats[:-1])
        else:
            discarded.extend(outcome.attempt_stats)
        if winner:
            for (channel_id, scope), delta in winner.items():
                channel = channels.get(channel_id)
                if channel is None:
                    continue  # channel's join already finished
                if scope is None:  # mutation outside any narrow transform
                    scope = ("task", stage.name, index)
                if channel.merge_winner(delta, scope):
                    stage.stats_deltas_merged += 1
                else:
                    stage.stats_deltas_deduped += 1
        for registry in discarded:
            for (channel_id, _scope), delta in registry.items():
                channel = channels.get(channel_id)
                if channel is None:
                    continue
                channel.merge_discarded(delta)
                stage.stats_deltas_discarded += 1

    @staticmethod
    def _trace_task(tracer, stage_span, index: int, outcome) -> None:
        """Synthesize task + attempt spans from one outcome's windows.

        The windows are absolute ``perf_counter`` intervals measured
        inside the worker (thread or forked process — the clock is
        system-wide), so the reconstructed spans show the stage's true
        concurrency structure even though they are recorded after the
        stage completed.
        """
        windows = outcome.attempt_windows
        if not windows:
            return
        task_span = tracer.add_completed(
            f"task-{index}",
            "task",
            windows[0][0],
            windows[-1][1],
            parent=stage_span,
            partition=index,
            attempts=len(windows),
            failures=outcome.failures,
            chaos_faults=outcome.chaos_faults,
            backoff_seconds=round(outcome.backoff_seconds, 6),
            speculated=outcome.speculated,
            speculative_win=outcome.speculative_win,
            respawns=outcome.respawns,
            ok=outcome.ok,
        )
        for number, (begin, end) in enumerate(windows):
            args = {}
            if number < len(outcome.attempt_failed):
                args["ok"] = not outcome.attempt_failed[number]
            if number < len(outcome.attempt_cpu_seconds):
                args["cpu_seconds"] = round(
                    outcome.attempt_cpu_seconds[number], 6
                )
            tracer.add_completed(
                f"attempt-{number}", "attempt", begin, end,
                parent=task_span, **args,
            )

    def run_job(self, rdd: RDD, name: str) -> list:
        """Run an action: returns one list of records per partition."""
        executor = self.context.executor
        tracer = self.context.tracer
        job = JobMetrics(
            name, executor=executor.name, max_workers=executor.max_workers
        )
        span = (
            tracer.begin(f"job:{name}", "job", executor=executor.name)
            if tracer is not None
            else None
        )
        try:
            self._materialize_shuffles(rdd, job, seen=set())
            stage = job.new_stage(f"result:{name}")
            tasks = [
                (lambda index=index: list(rdd.iterator(index)))
                for index in range(rdd.num_partitions)
            ]
            self._charge_broadcasts(stage, (rdd,))
            results = self._run_stage(stage, tasks)
        finally:
            if tracer is not None:
                tracer.end(
                    span,
                    stages=len(job.stages),
                    stages_recomputed=job.stages_recomputed,
                )
        for records in results:
            stage.records_out += len(records)
        if stage._trace_span is not None:
            stage._trace_span.annotate(records_out=stage.records_out)
        self.context.metrics.add(job)
        return results

    def materialize(self, rdd: RDD, name: str) -> JobMetrics:
        """Run only the map stages that ``rdd``'s pending shuffles need.

        A half-job: every unmaterialized :class:`ShuffleDependency` in the
        lineage is executed (and already-materialized ones revalidated),
        but the result stage is *not* run.  A later action on the same
        lineage reuses the outputs, so total work is unchanged — callers
        use this to split one action into separately timed phases (VJ's
        group vs. verify).  The job is recorded in the context metrics
        (possibly with zero stages) and returned.
        """
        executor = self.context.executor
        tracer = self.context.tracer
        job = JobMetrics(
            f"materialize:{name}",
            executor=executor.name,
            max_workers=executor.max_workers,
        )
        span = (
            tracer.begin(
                f"job:materialize:{name}", "job", executor=executor.name
            )
            if tracer is not None
            else None
        )
        try:
            self._materialize_shuffles(rdd, job, seen=set())
        finally:
            if tracer is not None:
                tracer.end(
                    span,
                    stages=len(job.stages),
                    stages_recomputed=job.stages_recomputed,
                )
        self.context.metrics.add(job)
        return job

    # ------------------------------------------------------------ internals

    def _materialize_shuffles(self, rdd: RDD, job: JobMetrics, seen: set) -> None:
        """Depth-first: parents' shuffles first, then this level's.

        Already-materialized shuffles are revalidated before reuse: a
        chaos plan may declare them lost, and a checksum mismatch means
        the outputs rotted in place.  Either way the dependency is
        invalidated and its map stage recomputed from lineage — the job
        keeps going where a cache-trusting scheduler would fail.
        """
        if rdd.rdd_id in seen:
            return
        seen.add(rdd.rdd_id)
        for dep in rdd.dependencies:
            self._materialize_shuffles(dep.parent, job, seen)
        for dep in rdd.dependencies:
            if not isinstance(dep, ShuffleDependency):
                continue
            if dep.materialized:
                self._inject_shuffle_loss(dep)
                self._inject_spill_faults(dep)
                if not self._shuffle_valid(dep):
                    if self.context.spill is not None:
                        self.context.spill.release(dep.outputs)
                    dep.invalidate()
                    job.stages_recomputed += 1
                    if self.context.tracer is not None:
                        self.context.tracer.instant(
                            "shuffle_recompute",
                            "recovery",
                            rdd=f"rdd{dep.parent.rdd_id}",
                        )
            if not dep.materialized:
                self._run_map_stage(dep, job)

    def _inject_shuffle_loss(self, dep: ShuffleDependency) -> None:
        chaos = self.context.chaos
        if chaos is None or dep.lost:
            return
        if chaos.shuffle_lost(f"rdd{dep.parent.rdd_id}", dep.loss_epoch):
            dep.loss_epoch += 1
            dep.mark_lost()
            if self.context.tracer is not None:
                self.context.tracer.instant(
                    "shuffle_lost", "chaos", rdd=f"rdd{dep.parent.rdd_id}"
                )

    def _inject_spill_faults(self, dep: ShuffleDependency) -> None:
        """Chaos disk faults land here — right before revalidation."""
        spill = self.context.spill
        if spill is None or dep.outputs is None:
            return
        spill.inject_faults(dep.outputs)

    def _shuffle_valid(self, dep: ShuffleDependency) -> bool:
        if dep.lost:
            return False
        for bucket in dep.outputs or ():
            # Spilled buckets are re-read byte by byte and their exact
            # full-file CRC32s rechecked — deletion, truncation, and
            # corruption of *any* byte invalidate the shuffle, with no
            # stride-sampling blind spot.
            if isinstance(bucket, SpilledBucket) and not bucket.validate():
                return False
        if dep.checksum is None:
            return True  # pre-checksum materialization (tests, manual deps)
        return (
            shuffle_checksum(dep.outputs, self.context.shuffle_byte_sample)
            == dep.checksum
        )

    def _run_map_stage(self, dep: ShuffleDependency, job: JobMetrics) -> None:
        parent = dep.parent
        partitioner = dep.partitioner
        stage = job.new_stage(f"shuffle:rdd{parent.rdd_id}")
        spill = self.context.spill
        sample = self.context.shuffle_byte_sample
        prefix = f"rdd{parent.rdd_id}"
        if spill is not None and spill.active:
            # Force the spill directory into existence *before* the
            # executor may fork: children inherit the path, so the
            # driver can account for (and clean up) their segments.
            spill.directory()

        def make_map_task(index):
            # A failed attempt may have emitted partial buckets; bucket
            # into fresh lists per attempt and merge on success only.
            def run_map_task():
                attempt_outputs: list = [
                    [] for _ in range(partitioner.num_partitions)
                ]
                if dep.aggregator is None:
                    count = self._bucket_raw(
                        parent, index, partitioner, attempt_outputs
                    )
                else:
                    count = self._bucket_combined(
                        parent, index, dep, attempt_outputs
                    )
                if spill is not None and spill.active:
                    # Large task outputs spill inside the task — on the
                    # processes backend only segment *refs* cross the
                    # result pipe, never the bucket payloads.
                    est = sampled_records_bytes(attempt_outputs, sample)
                    if est > spill.task_spill_threshold():
                        attempt_outputs = spill.spill_task_outputs(
                            prefix, index, attempt_outputs
                        )
                return count, attempt_outputs

            return run_map_task

        tasks = [make_map_task(i) for i in range(parent.num_partitions)]
        self._charge_broadcasts(stage, (parent, dep.aggregator))
        spill_before = spill.snapshot() if spill is not None else None
        task_results = self._run_stage(stage, tasks)

        # Merge every task's buckets in partition order, only after the
        # whole stage succeeded — bucket contents are byte-identical to a
        # serial run regardless of which backend computed them.
        if spill is not None and spill.active:
            # Budget-aware merge: each output bucket is charged against
            # the memory budget if it fits, streamed to a checksummed
            # segment file otherwise.  Task buckets are handed over (and
            # dropped) one output partition at a time, so driver-side
            # peak memory is one partition, not the whole shuffle.
            outputs = []
            for p in range(partitioner.num_partitions):
                parts = []
                for _count, attempt_outputs in task_results:
                    parts.append(attempt_outputs[p])
                    attempt_outputs[p] = None  # consumed
                spill.merge_bucket(prefix, outputs, p, parts, sample)
            for count, _attempt_outputs in task_results:
                stage.records_in += count
        else:
            outputs = [[] for _ in range(partitioner.num_partitions)]
            for count, attempt_outputs in task_results:
                for bucket, attempt_bucket in zip(outputs, attempt_outputs):
                    bucket.extend(attempt_bucket)
                stage.records_in += count
        stage.shuffle_records = sum(len(bucket) for bucket in outputs)
        stage.records_out = stage.shuffle_records
        stage.shuffle_bytes = estimate_shuffle_bytes(
            outputs, self.context.shuffle_byte_sample
        )
        if spill is not None:
            after = spill.snapshot()
            stage.spilled_bytes = (
                after["spilled_bytes"] - spill_before["spilled_bytes"]
            )
            stage.spill_files = (
                after["spill_files"] - spill_before["spill_files"]
            )
        if stage._trace_span is not None:
            stage._trace_span.annotate(
                records_in=stage.records_in,
                shuffle_records=stage.shuffle_records,
                shuffle_bytes=stage.shuffle_bytes,
            )
            if spill is not None:
                stage._trace_span.annotate(
                    spilled_bytes=stage.spilled_bytes,
                    spill_files=stage.spill_files,
                    spill_tracked_bytes=spill.tracked_bytes,
                    spill_peak_tracked_bytes=(
                        spill.counters.peak_tracked_bytes
                    ),
                    spill_budget_bytes=spill.budget_bytes,
                )
        dep.outputs = outputs
        dep.records = stage.shuffle_records
        dep.bytes = stage.shuffle_bytes
        dep.lost = False
        dep.checksum = shuffle_checksum(
            outputs, self.context.shuffle_byte_sample
        )

    @staticmethod
    def _bucket_raw(parent: RDD, index: int, partitioner, outputs: list) -> int:
        count = 0
        for record in parent.iterator(index):
            key = record[0]
            outputs[partitioner.partition(key)].append(record)
            count += 1
        return count

    @staticmethod
    def _bucket_combined(
        parent: RDD, index: int, dep: ShuffleDependency, outputs: list
    ) -> int:
        create, merge_value, _ = dep.aggregator
        combined: dict = {}
        count = 0
        for key, value in parent.iterator(index):
            if key in combined:
                combined[key] = merge_value(combined[key], value)
            else:
                combined[key] = create(value)
            count += 1
        for key, combiner in combined.items():
            outputs[dep.partitioner.partition(key)].append((key, combiner))
        return count
