"""Facade: one entry point over every similarity-join algorithm.

    >>> from repro import similarity_join, make_dataset
    >>> result = similarity_join(make_dataset("dblp"), theta=0.2,
    ...                          algorithm="cl")
    >>> len(result) > 0
    True

Algorithm names follow the paper's evaluation section:

========== =====================================================
name       meaning
========== =====================================================
bruteforce exact O(n^2) baseline (local, no engine)
local      single-machine prefix-filter join (PPJoin+ role)
vj         Vernica Join adaptation (Section 4)
vj-nl      VJ with iterator nested loops (Section 4.1)
cl         clustering algorithm (Section 5)
cl-p       CL with repartitioning (Section 6); needs ``partition_threshold``
jaccard    distributed Jaccard join (future-work extension)
metric-partition  random-centroid metric baseline (the §5.1 strawman)
========== =====================================================
"""

from __future__ import annotations

from ..minispark.chaos import ExecutorBrokenError, FaultPlan, SpeculationPolicy
from ..minispark.context import Context
from ..minispark.tracing import Tracer
from ..rankings.dataset import RankingDataset
from .bruteforce import bruteforce_join
from .clustered import cl_join
from .jaccard import jaccard_join
from .local import PrefixFilterJoin
from .metric_partition import metric_partition_join
from .types import JoinResult
from .vj import vj_join

ALGORITHMS = (
    "bruteforce", "local", "vj", "vj-nl", "cl", "cl-p", "jaccard",
    "metric-partition",
)

#: Backend to fall back to when the current one is marked broken
#: (a worker kept dying past the respawn budget).
DEGRADATION_CHAIN = {"processes": "threads", "threads": "serial"}


def similarity_join(
    dataset: RankingDataset,
    theta: float,
    algorithm: str = "cl",
    ctx: Context | None = None,
    num_partitions: int | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    kernel: str | None = None,
    task_retries: int | None = None,
    chaos: FaultPlan | None = None,
    speculation: SpeculationPolicy | None = None,
    trace: Tracer | bool | None = None,
    memory_budget_bytes: int | None = None,
    spill_dir: str | None = None,
    degrade_on_failure: bool = True,
    **options,
) -> JoinResult:
    """Find all ranking pairs within normalized Footrule distance ``theta``.

    Parameters
    ----------
    dataset:
        Equal-length top-k rankings.
    theta:
        Normalized threshold in ``[0, 1]`` (the paper sweeps 0.1–0.4).
    algorithm:
        One of :data:`ALGORITHMS`.
    ctx:
        A mini-Spark :class:`~repro.minispark.context.Context`; a default
        one is created for the distributed algorithms when omitted.
    num_partitions:
        Partition count of the distributed algorithms.
    executor:
        Task backend for the auto-created context: ``"serial"``,
        ``"threads"``, or ``"processes"``.  Only valid without ``ctx`` —
        pass ``Context(executor=...)`` to combine the two.
    max_workers:
        Worker count for the parallel backends of the auto-created
        context (defaults to CPU count).  Only valid without ``ctx``.
    kernel:
        Verification implementation of the prefix-filter algorithms:
        ``"vectorized"`` (columnar batch kernels over numpy arrays, the
        default) or ``"scalar"`` (the per-pair oracle).  Results and
        stats are identical; only speed differs.  Rejected for
        algorithms without the batch kernels.
    task_retries:
        Retry budget per task for the auto-created context (Spark's
        ``spark.task.maxFailures - 1``).  Only valid without ``ctx``.
    chaos:
        Seeded :class:`~repro.minispark.chaos.FaultPlan` for the
        auto-created context — injects transient failures, stragglers,
        worker kills, and shuffle loss so recovery paths can be
        exercised.  Only valid without ``ctx``.
    speculation:
        :class:`~repro.minispark.chaos.SpeculationPolicy` for the
        auto-created context (duplicate straggling tasks,
        first-finished-attempt wins).  Only valid without ``ctx``.
    trace:
        Structured tracing for the auto-created context: a
        :class:`~repro.minispark.tracing.Tracer`, ``True`` for a fresh
        one (read it back from ``result``'s context via
        ``ctx.tracer``), or ``None`` to consult the ``REPRO_TRACE``
        environment variable.  Only valid without ``ctx`` — pass
        ``Context(tracer=...)`` to combine the two.
    memory_budget_bytes:
        Shuffle memory budget for the auto-created context — buckets
        over budget spill to CRC32-checksummed segment files
        (:mod:`repro.minispark.spill`) and stream back on read; results
        and stats are byte-identical to an in-memory run.  ``None``
        (default) keeps every bucket in memory.  Only valid without
        ``ctx`` — pass ``Context(memory_budget_bytes=...)`` instead.
        Whoever created the context, its spill directory is cleaned up
        when the join returns (no leaked segment files, ever).
    spill_dir:
        Parent directory for the spill files; requires
        ``memory_budget_bytes``.  Only valid without ``ctx``.
    degrade_on_failure:
        When a backend is marked broken
        (:class:`~repro.minispark.chaos.ExecutorBrokenError`: workers
        kept dying past the respawn budget), fall back along
        processes -> threads -> serial and rerun instead of failing.
        Fallbacks are recorded in ``ctx.metrics.fallbacks``.
    options:
        Algorithm-specific keywords — ``theta_c`` and
        ``partition_threshold`` for cl/cl-p, ``variant`` and
        ``use_position_filter`` for the VJ family, etc.

    Returns
    -------
    JoinResult
        Exact result pairs plus filter statistics and phase timings.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    if ctx is not None:
        for name, value in (("executor", executor),
                            ("max_workers", max_workers),
                            ("task_retries", task_retries),
                            ("chaos", chaos), ("speculation", speculation),
                            ("trace", trace),
                            ("memory_budget_bytes", memory_budget_bytes),
                            ("spill_dir", spill_dir)):
            if value is not None:
                raise ValueError(
                    f"pass either ctx or {name}, not both — build the "
                    f"context with Context({name}=...) instead"
                )
    if kernel is not None:
        if algorithm not in ("vj", "vj-nl", "cl", "cl-p"):
            raise ValueError(
                f"kernel does not apply to algorithm {algorithm!r}"
            )
        options["kernel"] = kernel
    if algorithm == "bruteforce":
        return bruteforce_join(dataset, theta)
    if algorithm == "local":
        return PrefixFilterJoin(theta, **options).join(dataset)

    ctx = ctx or Context(
        executor=executor or "serial",
        max_workers=max_workers,
        task_retries=task_retries or 0,
        chaos=chaos,
        speculation=speculation,
        tracer=trace,
        memory_budget_bytes=memory_budget_bytes,
        spill_dir=spill_dir,
    )
    ships_rankings = algorithm not in ("vj", "vj-nl", "cl", "cl-p")
    if ctx.executor.name == "processes" and ships_rankings:
        # Build each ranking's item -> rank table up front: the tables are
        # pickled with the rankings, so forked verification tasks skip the
        # lazy per-object re-derivation on their private copies.  The
        # prefix-filter joins never ship ranking objects (workers read
        # the broadcast columnar store), so they skip this driver-side pass.
        for ranking in dataset.rankings:
            ranking.build_ranks()
    try:
        while True:
            try:
                return _dispatch(ctx, dataset, theta, algorithm,
                                 num_partitions, options)
            except ExecutorBrokenError as broken:
                fallback = DEGRADATION_CHAIN.get(ctx.executor.name)
                if not degrade_on_failure or fallback is None:
                    raise
                ctx.degrade_executor(fallback, reason=str(broken))
    finally:
        # Spill hygiene mirrors the cache no-leak invariant: whatever
        # happened — success, degradation, or a raised error — no
        # segment file outlives the join.  Lifetime counters survive,
        # so ``ctx.spill_summary()`` stays truthful afterwards.
        if ctx.spill is not None:
            ctx.spill.cleanup()


def _dispatch(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    algorithm: str,
    num_partitions: int | None,
    options: dict,
) -> JoinResult:
    """Run one distributed algorithm on an existing context."""
    if algorithm == "vj":
        return vj_join(ctx, dataset, theta, num_partitions, **options)
    if algorithm == "vj-nl":
        return vj_join(
            ctx, dataset, theta, num_partitions, variant="nl", **options
        )
    if algorithm == "cl":
        return cl_join(ctx, dataset, theta, num_partitions=num_partitions,
                       **options)
    if algorithm == "cl-p":
        if "partition_threshold" not in options:
            raise ValueError("cl-p requires a partition_threshold (delta)")
        return cl_join(ctx, dataset, theta, num_partitions=num_partitions,
                       **options)
    if algorithm == "metric-partition":
        return metric_partition_join(
            ctx, dataset, theta, num_partitions=num_partitions, **options
        )
    return jaccard_join(ctx, dataset, theta, num_partitions, **options)
