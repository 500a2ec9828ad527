"""Cluster configuration and the simulated-makespan cost model.

The paper runs on Spark 1.6 over 8 nodes (2 x 6-core Xeons, 128 GB each)
with the Table 3 parameters: 24 executor instances, 5 cores each, 8 GB
executor memory, 12 GB driver memory.  We execute tasks locally — serially
or on a thread/process backend (``Context(executor=...)``) — and record
every task's *own* compute duration (its final attempt) inside the worker;
:class:`ClusterModel` then *replays* those durations onto ``executors x
cores`` parallel slots to estimate the wall time a cluster of a given
shape would need.  Because ``task_seconds`` are per-task times (not stage
elapsed times), the replay stays valid whichever backend measured them;
the locally realized concurrency is reported separately as
``StageMetrics.wall_seconds`` / ``local_speedup``.

The model is deliberately simple and fully documented:

* per stage, tasks are assigned to slots by the longest-processing-time
  greedy rule (what a work-stealing scheduler approximates);
* stages execute serially (Spark stages synchronize at shuffles);
* every task pays a fixed scheduling latency;
* every shuffled record pays a fixed serialization + network cost, and
  every shuffled byte a per-byte wire cost, together divided across nodes
  (more nodes = more aggregate NIC bandwidth).

The model preserves exactly the effects the paper's scaling experiments
measure — task skew limiting speedup, shuffle volume, and slot count —
which is what "shape, not absolute seconds" requires.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .metrics import JobMetrics


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the (simulated) Spark cluster.

    Defaults mirror the paper's Table 3 on its 8-node cluster.
    """

    num_nodes: int = 8
    executor_instances: int = 24
    executor_cores: int = 5
    executor_memory_gb: int = 8
    driver_memory_gb: int = 12

    @property
    def slots(self) -> int:
        """Concurrently running tasks."""
        return self.executor_instances * self.executor_cores

    @classmethod
    def for_nodes(
        cls,
        num_nodes: int,
        executor_cores: int = 3,
        executors_per_node: int = 3,
    ) -> "ClusterConfig":
        """The Figure 7 setup: executor count left to YARN ~ nodes * density."""
        return cls(
            num_nodes=num_nodes,
            executor_instances=num_nodes * executors_per_node,
            executor_cores=executor_cores,
        )


#: The exact Table 3 parameter set, exported for the config benchmark.
TABLE3_CONFIG = ClusterConfig()


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the simulation (seconds / per-record costs).

    Defaults are calibrated for the laptop-scale workloads of the bench
    harness (seconds-long jobs); for cluster-scale extrapolation raise
    ``stage_overhead_seconds`` toward Spark's ~50-100 ms stage launch cost.
    """

    task_latency_seconds: float = 0.0005
    shuffle_record_seconds: float = 2.0e-7
    shuffle_byte_seconds: float = 2.0e-9
    stage_overhead_seconds: float = 0.002
    #: Cost of replacing one dead worker (re-fork + warm-up on a real
    #: cluster: container relaunch, JVM spin-up); charged per respawn.
    worker_respawn_seconds: float = 0.05


class ClusterModel:
    """Replays recorded task durations onto a cluster shape."""

    def __init__(
        self, config: ClusterConfig, cost_model: CostModel | None = None
    ):
        self.config = config
        self.cost_model = cost_model or CostModel()

    @staticmethod
    def makespan(task_seconds: list, slots: int) -> float:
        """LPT list-scheduling makespan of ``task_seconds`` on ``slots`` slots."""
        if not task_seconds:
            return 0.0
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        loads = [0.0] * min(slots, len(task_seconds))
        heapq.heapify(loads)
        for duration in sorted(task_seconds, reverse=True):
            lightest = heapq.heappop(loads)
            heapq.heappush(loads, lightest + duration)
        return max(loads)

    def stage_seconds(
        self,
        task_seconds: list,
        shuffle_records: int,
        shuffle_bytes: int = 0,
        backoff_seconds: float = 0.0,
        worker_respawns: int = 0,
        failed_attempt_seconds: float = 0.0,
    ) -> float:
        """Simulated wall time of one stage.

        The network term charges both a per-record cost (serialization
        call overhead, framing) and a per-byte cost (the wire itself), so
        a path that shuffles the same record count in fewer bytes — slim
        integer tokens, say — is rewarded by the replay.  Recovery is
        charged too: retry backoff waits, worker respawns, and the
        compute burned on failed attempts (``task_seconds`` holds only
        each task's *final* attempt, so failed tries are charged
        separately here) extend the stage — a chaos run simulates slower
        than a clean one, the cost the paper's Spark deployment pays for
        resilience.
        """
        cost = self.cost_model
        padded = [t + cost.task_latency_seconds for t in task_seconds]
        compute = self.makespan(padded, self.config.slots)
        network = (
            shuffle_records * cost.shuffle_record_seconds
            + shuffle_bytes * cost.shuffle_byte_seconds
        ) / max(1, self.config.num_nodes)
        recovery = (
            backoff_seconds
            + worker_respawns * cost.worker_respawn_seconds
            + failed_attempt_seconds
        )
        return cost.stage_overhead_seconds + compute + network + recovery

    def simulate(self, job: JobMetrics) -> float:
        """Simulated wall time of a whole job: stages run back to back.

        Recomputed stages need no special term: lineage recovery runs the
        map stage again, so its tasks appear a second time in the job's
        stage list and are replayed like any other work.
        """
        return sum(
            self.stage_seconds(
                stage.task_seconds,
                stage.shuffle_records,
                stage.shuffle_bytes,
                backoff_seconds=stage.backoff_seconds,
                worker_respawns=stage.worker_respawns,
                failed_attempt_seconds=stage.failed_attempt_seconds,
            )
            for stage in job.stages
        )

    def speedup_over_measured(self, job: JobMetrics) -> float | None:
        """Measured local wall time over the simulated cluster makespan.

        How much faster this cluster shape would run the job than the
        local execution (whatever executor backend produced it) actually
        did.  ``None`` when either time is too small to compare.
        """
        simulated = self.simulate(job)
        measured = job.total_wall_seconds
        if simulated <= 0.0 or measured <= 0.0:
            return None
        return measured / simulated
