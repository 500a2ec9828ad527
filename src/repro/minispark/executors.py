"""Pluggable task executors: how the scheduler runs a stage's tasks.

The scheduler turns every stage into an ordered list of zero-argument
*task thunks* (one per partition) and hands the whole list to a
:class:`TaskExecutor` together with a
:class:`~repro.minispark.chaos.TaskPolicy` (retry budget, seeded backoff,
chaos plan, speculation).  Three backends exist:

``serial``
    Runs tasks one after the other in the calling thread — the original
    deterministic behaviour, and the only backend that stops submitting
    work at the first exhausted task (matching classic fail-fast runs).
    Serial is the reference: the fault-tolerant backends must return
    byte-identical task values.

``threads``
    A ``concurrent.futures.ThreadPoolExecutor``.  Tasks share the parent
    process memory, so broadcast variables, accumulators, and RDD caches
    behave exactly as in serial mode.  With a
    :class:`~repro.minispark.chaos.SpeculationPolicy`, straggling tasks
    get a duplicate attempt and the first finished attempt wins.

``processes``
    Fork-based worker processes (POSIX only).  Workers are forked *per
    stage*, after upstream shuffles have materialized, so the children
    inherit the full lineage — closures never need to be pickled.  Two
    things travel back through each worker's pipe, per task: the
    *result*, and every ``cache()``d partition the task computed first
    (pickled; the scheduler pins them in the driver, still pickled, so
    the next stage's fork inherits them copy-on-write and each partition
    is computed once, as on serial/threads).  The driver reads
    all live pipes from one ``multiprocessing.connection.wait`` loop: a
    worker never blocks in ``send`` behind a sibling's unread results,
    so ``max_workers`` workers really run side by side.  A fork costs
    ~10 ms per stage — small against the work a stage does.  A worker
    that dies mid-stage (chaos kill, user ``os._exit``, OOM) is detected
    through the broken pipe and *respawned*: only the lost tasks re-run,
    up to the policy's respawn budget, after which the stage raises
    :class:`~repro.minispark.chaos.ExecutorBrokenError` so callers can
    degrade to a simpler backend.  Speculative duplicates run driver-side
    on a small thread pool (the parent owns the lineage too).

Every backend runs the retry loop *inside* the worker
(:func:`run_task_with_retries`), so per-attempt timing and the
partial-output isolation invariant are identical across backends, and a
flaky task retries on the same worker that saw it fail.  Retries honour
the policy's error classification (transient vs. fatal) and seeded
exponential backoff; chaos faults are injected at the attempt boundary
inside the same loop.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import connection
from time import perf_counter, sleep, thread_time
from typing import Callable, Sequence

from .accumulators import begin_attempt, end_attempt
from .chaos import (
    CHAOS_KILL_EXIT_CODE,
    ChaosError,
    ExecutorBrokenError,
    TaskPolicy,
    is_transient,
)
from .rdd import begin_cache_capture, end_cache_capture
from .spill import discard_spill_refs

#: Names accepted by :func:`make_executor` / ``Context(executor=...)``.
EXECUTOR_NAMES = ("serial", "threads", "processes")


@dataclass
class TaskOutcome:
    """What one task produced: a value or an error, plus attempt timings.

    ``attempt_seconds`` has one entry per attempt (failed attempts
    included); the scheduler records the *final* attempt's duration as the
    task's wall seconds in ``StageMetrics.task_seconds`` and keeps the
    full history in ``StageMetrics.attempt_seconds``, in partition order
    so metrics stay deterministic under concurrency.  The parallel lists
    ``attempt_windows`` (absolute ``perf_counter`` ``(begin, end)`` pairs
    — CLOCK_MONOTONIC is system-wide on POSIX, so windows measured inside
    forked workers are directly comparable to driver timestamps),
    ``attempt_cpu_seconds`` (per-attempt ``thread_time`` CPU deltas), and
    ``attempt_failed`` let the scheduler synthesize task/attempt trace
    spans after the fact, on any backend.  ``attempt_stats`` carries one
    accumulator-delta registry per attempt (see
    :mod:`~repro.minispark.accumulators`): the scheduler merges only the
    winning attempt's deltas into the driver-side channels and records
    the rest as discarded, which is what makes worker-side counters
    exact under retries and speculation.  ``discarded_stats`` collects
    delta registries from speculation losers whose outcome itself never
    becomes the task's result.  ``cache_fills`` is set by forked workers
    only: the ``cache()``d partitions the task computed first, pickled,
    for the scheduler to pin in the driver
    (:func:`~repro.minispark.rdd.install_cache_fills`).  The recovery
    fields record
    what it took to get the value: injected chaos faults, seconds slept
    in retry backoff, whether a speculative duplicate was launched / won,
    and how many worker respawns the task caused on the processes
    backend.
    """

    value: object = None
    attempt_seconds: list = field(default_factory=list)
    attempt_windows: list = field(default_factory=list)
    attempt_cpu_seconds: list = field(default_factory=list)
    attempt_failed: list = field(default_factory=list)
    attempt_stats: list = field(default_factory=list)
    discarded_stats: list = field(default_factory=list)
    cache_fills: dict = field(default_factory=dict)
    failures: int = 0
    error: BaseException | None = None
    backoff_seconds: float = 0.0
    chaos_faults: int = 0
    speculated: bool = False
    speculative_win: bool = False
    respawns: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def run_task_with_retries(
    compute: Callable,
    retries,
    index: int = 0,
    attempt_base: int = 0,
) -> TaskOutcome:
    """Execute one task with retries, backoff, and chaos, timing each attempt.

    ``retries`` is an ``int`` retry budget or a full
    :class:`~repro.minispark.chaos.TaskPolicy`.  Never raises: an
    exhausted task (or one failing with a fatal, non-retryable error)
    returns an outcome carrying its last exception, which the scheduler
    re-raises in partition order.  ``attempt_base`` offsets the attempt
    numbers the chaos plan sees, so a speculative duplicate rolls
    different faults than the primary.
    """
    policy = TaskPolicy.of(retries)
    outcome = TaskOutcome()
    for attempt in range(policy.retries + 1):
        number = attempt_base + attempt
        start = perf_counter()
        cpu_start = thread_time()
        token = begin_attempt()
        try:
            if policy.chaos is not None:
                delay = policy.chaos.straggler_delay(policy.stage, index, number)
                if delay > 0.0:
                    sleep(delay)
                if policy.chaos.transient_fault(policy.stage, index, number):
                    raise ChaosError(
                        f"injected transient fault (stage={policy.stage}, "
                        f"task={index}, attempt={number})"
                    )
            value = compute()
        except Exception as exc:
            _close_attempt(outcome, start, cpu_start, failed=True, token=token)
            outcome.failures += 1
            if isinstance(exc, ChaosError):
                outcome.chaos_faults += 1
            if attempt == policy.retries or not is_transient(exc):
                outcome.error = exc
                return outcome
            backoff = policy.retry.backoff_seconds(policy.stage, index, number)
            if backoff > 0.0:
                outcome.backoff_seconds += backoff
                sleep(backoff)
        else:
            _close_attempt(outcome, start, cpu_start, failed=False, token=token)
            outcome.value = value
            return outcome
    raise AssertionError("unreachable")


def _close_attempt(outcome, start, cpu_start, failed, token) -> None:
    """Record one finished attempt's wall window, CPU time, and status."""
    end = perf_counter()
    outcome.attempt_seconds.append(end - start)
    outcome.attempt_windows.append((start, end))
    outcome.attempt_cpu_seconds.append(max(0.0, thread_time() - cpu_start))
    outcome.attempt_failed.append(failed)
    outcome.attempt_stats.append(end_attempt(token))


def default_max_workers() -> int:
    """Worker count when the caller does not choose one: the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _completed_task_seconds(outcomes: Sequence) -> list:
    """Durations of successful outcomes so far (speculation baseline)."""
    return [
        outcome.attempt_seconds[-1]
        for outcome in outcomes
        if outcome is not None and outcome.ok and outcome.attempt_seconds
    ]


class TaskExecutor:
    """Base class: runs an ordered list of task thunks.

    ``run_tasks`` returns one :class:`TaskOutcome` per task, *in task
    order* regardless of completion order.  ``retries`` accepts either an
    ``int`` budget or a :class:`~repro.minispark.chaos.TaskPolicy`.
    """

    name = "base"

    def __init__(self, max_workers: int | None = None):
        workers = default_max_workers() if max_workers is None else max_workers
        if workers <= 0:
            raise ValueError(f"max_workers must be positive, got {workers}")
        self.max_workers = workers

    def run_tasks(self, tasks: Sequence[Callable], retries) -> list:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialExecutor(TaskExecutor):
    """Original behaviour: in-order, fail-fast task execution."""

    name = "serial"

    def __init__(self, max_workers: int | None = None):
        super().__init__(1)

    def run_tasks(self, tasks: Sequence[Callable], retries) -> list:
        policy = TaskPolicy.of(retries)
        outcomes = []
        for index, task in enumerate(tasks):
            outcome = run_task_with_retries(task, policy, index)
            outcomes.append(outcome)
            if not outcome.ok:
                break  # later partitions never run, like the classic loop
        return outcomes


class ThreadTaskExecutor(TaskExecutor):
    """All partition tasks of a stage submitted to one thread pool."""

    name = "threads"

    def run_tasks(self, tasks: Sequence[Callable], retries) -> list:
        policy = TaskPolicy.of(retries)
        if len(tasks) <= 1:
            return SerialExecutor().run_tasks(tasks, policy)
        if policy.speculation is not None:
            return self._run_with_speculation(tasks, policy)
        with ThreadPoolExecutor(
            max_workers=min(self.max_workers, len(tasks)),
            thread_name_prefix="minispark-task",
        ) as pool:
            futures = [
                pool.submit(run_task_with_retries, task, policy, index)
                for index, task in enumerate(tasks)
            ]
            return [future.result() for future in futures]

    def _run_with_speculation(self, tasks: Sequence[Callable], policy) -> list:
        """First-finished-attempt-wins duplication of straggling tasks.

        Tasks are deterministic, so the primary and its duplicate compute
        the same value — which attempt wins only shows in the metrics.
        A few reserve threads keep duplicates from queueing behind the
        very stragglers they are meant to bypass.
        """
        spec = policy.speculation
        n = len(tasks)
        reserve = max(1, min(4, n // 2))
        outcomes: list = [None] * n
        started: dict = {}

        def make_primary(index):
            def run():
                started[index] = perf_counter()
                return run_task_with_retries(tasks[index], policy, index)

            return run

        with ThreadPoolExecutor(
            max_workers=min(self.max_workers, n) + reserve,
            thread_name_prefix="minispark-task",
        ) as pool:
            primary = {i: pool.submit(make_primary(i)) for i in range(n)}
            copies: dict = {}
            unresolved = set(range(n))
            while unresolved:
                active = [
                    f
                    for i in unresolved
                    for f in (primary[i], copies.get(i))
                    if f is not None and not f.done()
                ]
                if active:
                    wait(active, timeout=spec.poll_seconds,
                         return_when=FIRST_COMPLETED)
                now = perf_counter()
                completed = _completed_task_seconds(outcomes)
                for i in sorted(unresolved):
                    p = primary[i]
                    c = copies.get(i)
                    p_done = p.done()
                    c_done = c is not None and c.done()
                    chosen = None
                    win = False
                    if p_done and p.result().ok:
                        chosen = p.result()
                    elif c_done and c.result().ok:
                        chosen, win = c.result(), True
                    elif p_done and (c is None or c_done):
                        chosen = p.result()  # both exhausted: primary error
                    if chosen is not None:
                        chosen.speculated = i in copies
                        chosen.speculative_win = win
                        outcomes[i] = chosen
                        unresolved.discard(i)
                        continue
                    if (
                        c is None
                        and not p_done
                        and i in started
                        and now - started[i] > spec.threshold(completed)
                    ):
                        copies[i] = pool.submit(
                            run_task_with_retries, tasks[i], policy, i,
                            policy.speculative_attempt_base(),
                        )
        # Pool shutdown waited for every attempt, so the losing side of
        # each duplicated task is finished too: hand its accumulator
        # deltas to the winner so the scheduler can record them as
        # discarded instead of silently dropping (or worse, merging)
        # them.
        for i, copy in copies.items():
            chosen = outcomes[i]
            for future in (primary[i], copy):
                loser = future.result()
                if loser is not chosen:
                    _discard_loser(chosen, loser)
        return outcomes


class ProcessTaskExecutor(TaskExecutor):
    """Fork-per-stage worker processes (POSIX only).

    Task indices are striped round-robin over ``max_workers`` children.
    Forking happens here — after earlier stages materialized their
    shuffle outputs and pinned their cached partitions in the parent —
    so children see the complete lineage state without any pickling of
    closures.  Only results, exceptions and newly cached partitions
    cross the pipe and therefore must be picklable.

    The driver reads every live worker's pipe from one
    ``multiprocessing.connection.wait`` loop, so no worker ever blocks in
    ``send`` behind a sibling's unread results.

    Fault tolerance: a worker that dies before reporting all its tasks
    (detected as EOF on its pipe) is respawned with exactly the lost
    tasks, up to ``policy.max_worker_respawns`` per stage; past the
    budget the stage raises
    :class:`~repro.minispark.chaos.ExecutorBrokenError`.  Chaos worker
    kills (``FaultPlan.kill_rate``) fire in the child at a task boundary,
    keyed by how often that task already killed a worker, so recovery is
    guaranteed to make progress.  Speculative duplicates of straggling
    tasks run driver-side (the parent owns the lineage too); the first
    finished attempt wins.
    """

    name = "processes"

    #: Pipe wait timeout when speculation is off (just liveness checks).
    _POLL_SECONDS = 0.2

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the 'processes' executor needs the fork start method "
                "(POSIX); use 'threads' or 'serial' on this platform"
            )

    def run_tasks(self, tasks: Sequence[Callable], retries) -> list:
        policy = TaskPolicy.of(retries)
        if len(tasks) <= 1 or self.max_workers == 1:
            return SerialExecutor().run_tasks(tasks, policy)
        ctx = multiprocessing.get_context("fork")
        # Children inherit the broadcast registry copy-on-write, so
        # every worker — a respawned one included — resolves broadcast
        # handles without copying or unpickling a payload.
        num_workers = min(self.max_workers, len(tasks))
        outcomes: list = [None] * len(tasks)
        restarts = [0] * len(tasks)
        respawns = [0] * len(tasks)
        respawns_left = policy.max_worker_respawns
        spec = policy.speculation
        spec_pool = None
        if spec is not None:
            spec_pool = ThreadPoolExecutor(
                max_workers=max(2, num_workers // 2),
                thread_name_prefix="minispark-spec",
            )
        poll_seconds = (
            spec.poll_seconds if spec is not None else self._POLL_SECONDS
        )
        copies: dict = {}  # task index -> driver-side duplicate's future
        live: dict = {}  # pipe -> worker; a worker leaves once joined
        try:
            for worker_id in range(num_workers):
                worker = _Worker(
                    ctx, tasks,
                    list(range(worker_id, len(tasks), num_workers)),
                    policy, restarts,
                )
                live[worker.receiver] = worker
            while live:
                ready = connection.wait(list(live), poll_seconds)
                for receiver, worker in list(live.items()):
                    if receiver in ready:
                        exited = not worker.receive(outcomes, copies)
                    else:
                        exited = (
                            not worker.process.is_alive()
                            and not receiver.poll(0)
                        )
                    expected = worker.advance(outcomes, copies)
                    if not exited:
                        if (
                            spec_pool is not None
                            and expected is not None
                            and expected not in copies
                            and perf_counter() - worker.task_start
                            > spec.threshold(_completed_task_seconds(outcomes))
                        ):
                            copies[expected] = spec_pool.submit(
                                run_task_with_retries, tasks[expected],
                                policy, expected,
                                policy.speculative_attempt_base(),
                            )
                        continue
                    # A pipe is read until its worker exits, even once
                    # duplicates resolved all its tasks: the worker holds
                    # its own copy of the read end, so a late result
                    # sent into a pipe nobody drains would block forever.
                    del live[receiver]
                    receiver.close()
                    worker.process.join()
                    lost = [i for i in worker.indices if outcomes[i] is None]
                    if not lost:
                        continue
                    victim = lost[0]  # death happens at (or in) that task
                    restarts[victim] += 1
                    if respawns_left <= 0:
                        raise ExecutorBrokenError(
                            "worker process died (exit code "
                            f"{worker.process.exitcode}) while running "
                            f"task {victim} of stage {policy.stage!r} and "
                            "the respawn budget "
                            f"({policy.max_worker_respawns}) is exhausted; "
                            "the task may be killing its worker "
                            "deterministically — try the 'threads' or "
                            "'serial' executor"
                        )
                    respawns_left -= 1
                    respawns[victim] += 1
                    worker = _Worker(ctx, tasks, lost, policy, restarts)
                    live[worker.receiver] = worker
        except BaseException:
            for worker in live.values():  # don't leak workers
                if worker.process.is_alive():
                    worker.process.terminate()
            raise
        finally:
            if spec_pool is not None:
                spec_pool.shutdown(wait=False, cancel_futures=True)
        for outcome, count in zip(outcomes, respawns):
            outcome.respawns += count
        return outcomes


class _Worker:
    """Driver-side view of one forked worker and the tasks it still owes.

    The worker sends ``(index, outcome)`` pairs in assignment order, then
    exits; EOF before the last one means the process died.  Tasks whose
    results already arrived are never recomputed.
    """

    def __init__(self, ctx, tasks, indices, policy, restarts):
        self.indices = indices
        self._pos = 0
        self.task_start = perf_counter()  # when the expected task began
        self.receiver, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_forked_worker,
            # restarts is snapshotted at fork time: the child only needs
            # the kill history, never live updates.
            args=(sender, tasks, indices, policy, list(restarts)),
            daemon=True,
        )
        self.process.start()
        sender.close()  # parent keeps only the read end

    def receive(self, outcomes: list, copies: dict) -> bool:
        """Read one result off the pipe; ``False`` on EOF (worker exited)."""
        try:
            index, outcome = self.receiver.recv()
        except (EOFError, OSError):
            return False
        copy = copies.get(index)
        if outcomes[index] is None:
            outcome.speculated = copy is not None
            if copy is not None and copy.done():
                # A duplicate finished (and lost, or failed) before the
                # worker's own result arrived: keep its deltas as
                # discarded.
                _discard_loser(outcome, copy.result())
            outcomes[index] = outcome
        else:
            # The speculative copy already won; the worker's late result
            # is the loser.
            _discard_loser(outcomes[index], outcome)
        return True

    def advance(self, outcomes: list, copies: dict):
        """Step past resolved tasks; return the one now awaited, if any.

        A finished, successful driver-side duplicate of the awaited task
        resolves it on the spot.
        """
        while self._pos < len(self.indices):
            expected = self.indices[self._pos]
            if outcomes[expected] is None:
                copy = copies.get(expected)
                if copy is None or not copy.done() or not copy.result().ok:
                    return expected
                outcome = copy.result()
                outcome.speculated = True
                outcome.speculative_win = True
                outcomes[expected] = outcome
            self._pos += 1
            self.task_start = perf_counter()
        return None


def _discard_loser(winner: TaskOutcome, loser: TaskOutcome) -> None:
    """Keep a speculation loser's deltas as discarded; drop its spills."""
    winner.discarded_stats.extend(loser.attempt_stats)
    # The losing attempt may have spilled its buckets; those segment
    # files will never be adopted.
    discard_spill_refs(loser.value)


def _forked_worker(conn, tasks, indices, policy, restarts):
    """Child body: run the assigned tasks, pipe each outcome back.

    Chaos worker kills fire here, at the task boundary, exactly as a real
    executor JVM would vanish between tasks: the process exits hard, the
    parent sees EOF and respawns.
    """
    try:
        for index in indices:
            if policy.chaos is not None and policy.chaos.should_kill(
                policy.stage, index, restarts[index]
            ):
                os._exit(CHAOS_KILL_EXIT_CODE)
            begin_cache_capture()
            outcome = run_task_with_retries(tasks[index], policy, index)
            outcome.cache_fills = end_cache_capture()
            try:
                conn.send((index, outcome))
            except Exception as exc:  # unpicklable result or error
                fallback = TaskOutcome(
                    failures=outcome.failures,
                    attempt_seconds=outcome.attempt_seconds,
                    attempt_windows=outcome.attempt_windows,
                    attempt_cpu_seconds=outcome.attempt_cpu_seconds,
                    attempt_failed=outcome.attempt_failed,
                    attempt_stats=outcome.attempt_stats,
                    error=RuntimeError(
                        "task result could not be sent back from "
                        f"the worker process: {exc!r}"
                    ),
                )
                try:
                    conn.send((index, fallback))
                except Exception:  # the deltas themselves are unpicklable
                    fallback.attempt_stats = []
                    conn.send((index, fallback))
    finally:
        conn.close()


def make_executor(name: str, max_workers: int | None = None) -> TaskExecutor:
    """Resolve an executor name (``Context(executor=...)``) to a backend."""
    if isinstance(name, TaskExecutor):
        return name
    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return ThreadTaskExecutor(max_workers)
    if name == "processes":
        return ProcessTaskExecutor(max_workers)
    raise ValueError(
        f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
    )
