"""Experiment runner: one place that knows how to execute a configuration.

Mirrors the paper's measurement protocol: every experiment runs an
algorithm against a workload and reports execution time.  Because tasks
execute sequentially in-process, we report both:

* ``wall_seconds`` — measured single-core wall time (the total work; this
  is the primary series for the threshold/size sweeps, where the paper's
  cluster is fixed and total work drives the curves), and
* ``simulated`` — the cluster cost model's makespan per named cluster
  shape (the series for the node-scaling and partition-count experiments,
  where parallelism itself is the subject).

The paper stops any algorithm after 10 hours and reports the cell as DNF;
:func:`run_series` reproduces that with a per-run budget — once a
configuration exceeds it, the remaining (larger) thetas of that algorithm
are skipped and reported as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from ..joins.clustered import cl_join
from ..joins.types import JoinResult
from ..joins.vj import vj_join
from ..minispark.chaos import FaultPlan, SpeculationPolicy
from ..minispark.cluster import ClusterConfig
from ..minispark.context import Context
from .workloads import load_workload

#: Cluster shapes experiments simulate by default: the paper's Table 3
#: cluster plus the Figure 7 four- and eight-node configurations.
DEFAULT_CLUSTERS: dict = {
    "table3": ClusterConfig(),
    "nodes4": ClusterConfig.for_nodes(4),
    "nodes8": ClusterConfig.for_nodes(8),
}

#: Algorithms of the evaluation (Section 7, "Algorithms under investigation").
PAPER_ALGORITHMS = ("vj", "vj-nl", "cl", "cl-p")


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell: algorithm x workload x parameters."""

    algorithm: str
    workload: str
    theta: float
    theta_c: float = 0.03
    partition_threshold: int | None = None
    num_partitions: int = 64
    use_position_filter: bool = True
    triangle_accept: bool = True
    variant: str | None = None
    seed: int = 0
    executor: str = "serial"
    max_workers: int | None = None
    kernel: str = "vectorized"
    task_retries: int = 0
    chaos: FaultPlan | None = None
    speculation: SpeculationPolicy | None = None
    #: Shuffle memory budget for out-of-core runs (None: all in memory).
    memory_budget_bytes: int | None = None
    spill_dir: str | None = None
    #: Benchmarks are self-profiling by default: the run's trace digest
    #: (stage counts, phases, skew) is stamped into the record.
    trace: bool = True

    def label(self) -> str:
        return f"{self.algorithm}/{self.workload}/theta={self.theta}"


@dataclass
class RunRecord:
    """Measured outcome of one experiment cell."""

    config: RunConfig
    wall_seconds: float
    simulated: dict
    result_count: int
    phase_seconds: dict
    stats: dict
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    recovery: dict = field(default_factory=dict)
    spill: dict = field(default_factory=dict)
    broadcast: dict = field(default_factory=dict)
    trace_digest: dict = field(default_factory=dict)
    dnf: bool = False

    def simulated_on(self, cluster: str) -> float:
        return self.simulated[cluster]


def default_delta(dataset_size: int, theta: float) -> int:
    """A per-workload partitioning threshold, growing with theta.

    The paper picks larger deltas for larger thresholds ("we expect an
    increase in the size of the posting lists"); this linear rule matches
    the flat region of Figure 10 on the synthetic workloads.
    """
    return max(10, int(dataset_size * (0.01 + 0.04 * theta)))


def run(
    config: RunConfig, clusters: dict | None = None
) -> RunRecord:
    """Execute one configuration and collect all measurements."""
    clusters = clusters if clusters is not None else DEFAULT_CLUSTERS
    dataset = load_workload(config.workload, seed=config.seed)
    ctx = Context(
        default_parallelism=config.num_partitions,
        executor=config.executor,
        max_workers=config.max_workers,
        task_retries=config.task_retries,
        chaos=config.chaos,
        speculation=config.speculation,
        tracer=config.trace,
        memory_budget_bytes=config.memory_budget_bytes,
        spill_dir=config.spill_dir,
    )

    try:
        start = perf_counter()
        result = _dispatch(ctx, dataset, config)
        wall = perf_counter() - start
        spill_summary = ctx.spill_summary()
        broadcast_summary = ctx.broadcast_summary()
    finally:
        # Same spill hygiene as similarity_join: no segment file
        # outlives the run, whatever happened (counters survive).
        if ctx.spill is not None:
            ctx.spill.cleanup()

    combined = ctx.metrics.combined()
    return RunRecord(
        config=config,
        wall_seconds=wall,
        simulated={
            name: ctx.simulated_seconds(shape)
            for name, shape in clusters.items()
        },
        result_count=len(result),
        phase_seconds=dict(result.phase_seconds),
        stats=vars(result.stats).copy(),
        shuffle_records=combined.total_shuffle_records,
        shuffle_bytes=combined.total_shuffle_bytes,
        recovery=ctx.metrics.recovery_summary(),
        spill=spill_summary,
        broadcast=broadcast_summary,
        trace_digest=(
            ctx.tracer.digest() if ctx.tracer is not None else {}
        ),
    )


def _dispatch(ctx: Context, dataset, config: RunConfig) -> JoinResult:
    p = config.num_partitions
    if config.algorithm == "vj":
        return vj_join(
            ctx, dataset, config.theta, p,
            variant=config.variant or "index",
            use_position_filter=config.use_position_filter,
            seed=config.seed,
            kernel=config.kernel,
        )
    if config.algorithm == "vj-nl":
        return vj_join(
            ctx, dataset, config.theta, p,
            variant="nl",
            use_position_filter=config.use_position_filter,
            seed=config.seed,
            kernel=config.kernel,
        )
    if config.algorithm == "cl":
        return cl_join(
            ctx, dataset, config.theta,
            theta_c=config.theta_c,
            num_partitions=p,
            variant=config.variant or "nl",
            use_position_filter=config.use_position_filter,
            triangle_accept=config.triangle_accept,
            seed=config.seed,
            kernel=config.kernel,
        )
    if config.algorithm == "cl-p":
        delta = config.partition_threshold
        if delta is None:
            delta = default_delta(len(dataset), config.theta)
        return cl_join(
            ctx, dataset, config.theta,
            theta_c=config.theta_c,
            num_partitions=p,
            variant=config.variant or "nl",
            partition_threshold=delta,
            use_position_filter=config.use_position_filter,
            triangle_accept=config.triangle_accept,
            seed=config.seed,
            kernel=config.kernel,
        )
    raise ValueError(f"unknown algorithm {config.algorithm!r}")


@dataclass
class Series:
    """One figure line: an algorithm swept over an x-axis."""

    algorithm: str
    xs: list
    records: list = field(default_factory=list)

    def values(self, metric: str = "wall", cluster: str = "table3") -> list:
        """Series values with ``None`` for DNF/skipped cells."""
        out = []
        for record in self.records:
            if record is None or record.dnf:
                out.append(None)
            elif metric == "wall":
                out.append(record.wall_seconds)
            else:
                out.append(record.simulated_on(cluster))
        return out


def run_series(
    algorithm: str,
    workload: str,
    thetas: list,
    budget_seconds: float | None = None,
    clusters: dict | None = None,
    **config_kwargs,
) -> Series:
    """Sweep theta for one algorithm, honouring the DNF budget.

    Thetas must be ascending; after a run exceeds ``budget_seconds`` the
    remaining cells are skipped (runtime grows with theta), mirroring the
    paper's 10-hour cutoff.
    """
    series = Series(algorithm, list(thetas))
    over_budget = False
    for theta in thetas:
        if over_budget:
            series.records.append(None)
            continue
        record = run(
            RunConfig(algorithm=algorithm, workload=workload, theta=theta,
                      **config_kwargs),
            clusters=clusters,
        )
        if budget_seconds is not None and record.wall_seconds > budget_seconds:
            record.dnf = True
            over_budget = True
        series.records.append(record)
    return series
