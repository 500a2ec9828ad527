"""A from-scratch, single-process Spark-like dataflow engine.

Provides the execution substrate the paper's algorithms are written
against: lazy RDD lineage, narrow/wide transformations with hash shuffles,
broadcast variables, per-task timing, and a cluster cost model that replays
measured task durations onto a configurable ``executors x cores`` shape.
"""

from .accumulators import StatsChannel, local_stats
from .broadcast import (
    BroadcastLostError,
    BroadcastManager,
    find_broadcasts,
    handles_only,
)
from .chaos import (
    CHAOS_KILL_EXIT_CODE,
    ChaosDiskError,
    ChaosError,
    ChaosPolicy,
    ExecutorBrokenError,
    FaultPlan,
    RetryPolicy,
    SpeculationPolicy,
    TaskPolicy,
    WorkerLostError,
    is_transient,
)
from .cluster import TABLE3_CONFIG, ClusterConfig, ClusterModel, CostModel
from .context import Accumulator, Broadcast, Context
from .executors import (
    EXECUTOR_NAMES,
    ProcessTaskExecutor,
    SerialExecutor,
    TaskExecutor,
    ThreadTaskExecutor,
    make_executor,
)
from .metrics import JobMetrics, MetricsCollector, StageMetrics
from .spill import (
    SpillCorruptionError,
    SpilledBucket,
    SpillError,
    SpillManager,
)
from .tracing import TRACE_SCHEMA_VERSION, Span, Tracer, phase_scope
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    portable_hash,
)
from .rdd import RDD

__all__ = [
    "CHAOS_KILL_EXIT_CODE",
    "EXECUTOR_NAMES",
    "TABLE3_CONFIG",
    "Accumulator",
    "Broadcast",
    "BroadcastLostError",
    "BroadcastManager",
    "ChaosDiskError",
    "ChaosError",
    "ChaosPolicy",
    "ClusterConfig",
    "ClusterModel",
    "Context",
    "CostModel",
    "ExecutorBrokenError",
    "FaultPlan",
    "RetryPolicy",
    "SpeculationPolicy",
    "TaskPolicy",
    "WorkerLostError",
    "is_transient",
    "HashPartitioner",
    "ProcessTaskExecutor",
    "SerialExecutor",
    "TaskExecutor",
    "ThreadTaskExecutor",
    "make_executor",
    "JobMetrics",
    "MetricsCollector",
    "Partitioner",
    "RDD",
    "RangePartitioner",
    "Span",
    "SpillCorruptionError",
    "SpillError",
    "SpillManager",
    "SpilledBucket",
    "StageMetrics",
    "StatsChannel",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "find_broadcasts",
    "handles_only",
    "local_stats",
    "phase_scope",
    "portable_hash",
]
