"""``JoinStats`` must be byte-identical across executors and chaos.

The accumulator channel's contract: worker-side counters are *exact* —
not approximately right, not right-on-serial-only.  For every algorithm,
``vars(result.stats)`` from a parallel or fault-injected run equals the
fault-free serial run exactly:

* retried attempts must not double-count (only the winning attempt's
  delta merges);
* speculation losers must not count at all;
* forked-process workers must not lose their counts;
* lineage recomputation after shuffle loss must not re-count a partition
  already merged (logical ``(rdd_id, partition)`` scoping dedups it).

Also pinned here: the repartitioning counter of Section 6's ``split_group``
(which used to be driver-side closure state, lost on processes and
double-counted on recompute), and the cache-hygiene invariant that every
join unpersists what it cached.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.joins import cl_join, vj_join
from repro.joins.jaccard import jaccard_join
from repro.joins.metric_partition import metric_partition_join
from repro.minispark import Context, FaultPlan, RetryPolicy, SpeculationPolicy
from repro.rankings import Ranking, RankingDataset

K = 5
DOMAIN = list(range(11))

ALGORITHMS = ["vj", "vj-nl", "cl", "cl-p"]

#: One case per algorithm; the ids keep the ``compact-`` prefix under which
#: the tier-1 floor list knows these cases.
per_algorithm = pytest.mark.parametrize(
    "algorithm", ALGORITHMS, ids=[f"compact-{name}" for name in ALGORITHMS]
)

#: No sleeping between attempts: the counter contract is what's under test.
_fast_retry = RetryPolicy(backoff_base_seconds=0.0)


def datasets(min_size=2, max_size=12):
    ranking = st.permutations(DOMAIN).map(lambda p: tuple(p[:K]))
    return st.lists(ranking, min_size=min_size, max_size=max_size).map(
        lambda rows: RankingDataset(
            [Ranking(i, row) for i, row in enumerate(rows)]
        )
    )


fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    transient_rate=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    shuffle_loss_rate=st.sampled_from([0.0, 0.5, 1.0]),
    max_faults_per_task=st.integers(min_value=1, max_value=3),
)


def _run(dataset, theta, algorithm, ctx):
    if algorithm in ("vj", "vj-nl"):
        return vj_join(
            ctx, dataset, theta,
            variant="nl" if algorithm == "vj-nl" else "index",
        )
    kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
    return cl_join(ctx, dataset, theta, theta_c=min(0.03, theta), **kwargs)


def _stats(result) -> dict:
    return vars(result.stats).copy()


# ------------------------------------------------------- property coverage


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.sampled_from(ALGORITHMS),
)
def test_stats_identical_on_threads(dataset, theta, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    threaded_ctx = Context(3, executor="threads", max_workers=3)
    threaded = _run(dataset, theta, algorithm, threaded_ctx)
    assert _stats(threaded) == _stats(clean)
    assert threaded_ctx.cached_partition_count() == 0


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    fault_plans,
    st.sampled_from(ALGORITHMS),
)
def test_stats_identical_under_chaos(dataset, theta, plan, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    chaotic_ctx = Context(
        3, task_retries=plan.max_faults_per_task, chaos=plan,
        retry_policy=_fast_retry,
    )
    chaotic = _run(dataset, theta, algorithm, chaotic_ctx)
    assert _stats(chaotic) == _stats(clean)
    if plan.transient_rate == 1.0:
        # Every attempt faulted at least once, so discarded first-attempt
        # deltas must be visible in the recovery summary while the merged
        # counters above stayed exact.
        summary = chaotic_ctx.metrics.recovery_summary()
        if summary["retries"]:
            assert summary["stats_deltas_discarded"] >= 0


# ---------------------------------------------------- parallel backends


@per_algorithm
def test_stats_identical_on_threads_under_chaos(small_dblp, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    plan = FaultPlan(seed=9, transient_rate=0.3, straggler_rate=0.1,
                     straggler_seconds=0.001, shuffle_loss_rate=0.5)
    ctx = Context(4, executor="threads", task_retries=2, chaos=plan,
                  retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, algorithm, ctx)
    assert _stats(chaotic) == _stats(clean)
    assert ctx.metrics.recovery_summary()["chaos_faults"] > 0
    assert ctx.cached_partition_count() == 0


@pytest.mark.parametrize("algorithm", ["vj", "cl"])
def test_stats_identical_on_processes(small_dblp, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    ctx = Context(4, executor="processes", max_workers=2)
    forked = _run(small_dblp, 0.2, algorithm, ctx)
    assert _stats(forked) == _stats(clean)
    assert ctx.cached_partition_count() == 0


def test_stats_identical_on_processes_with_kills(small_dblp):
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    plan = FaultPlan(seed=2, kill_rate=0.4, transient_rate=0.2)
    ctx = Context(4, executor="processes", max_workers=2, task_retries=2,
                  chaos=plan, max_worker_respawns=64,
                  retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, "vj", ctx)
    assert _stats(chaotic) == _stats(clean)


def test_stats_identical_under_speculation(small_dblp):
    """Speculation losers' deltas are discarded, never merged."""
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    plan = FaultPlan(seed=5, straggler_rate=0.5, straggler_seconds=0.2)
    ctx = Context(
        4, executor="threads", max_workers=4, chaos=plan, task_retries=1,
        retry_policy=_fast_retry,
        speculation=SpeculationPolicy(multiplier=1.5, min_seconds=0.02,
                                      poll_seconds=0.005),
    )
    raced = _run(small_dblp, 0.2, "vj", ctx)
    assert _stats(raced) == _stats(clean)


# ----------------------------------------- split_group regression (Sec. 6)


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
def test_repartitioned_groups_exact_under_shuffle_loss(small_dblp, executor):
    """The repartitioning counter survives lineage recomputation.

    ``split_group`` runs inside a worker closure; before the accumulator
    channel its counter was lost on the processes backend and
    double-counted whenever shuffle loss forced the cached ``large`` RDD
    to be recomputed.  With 100% shuffle loss every read retries at least
    once, so any double-counting would show immediately.
    """
    clean_ctx = Context(4)
    clean = _run(small_dblp, 0.2, "cl-p", clean_ctx)
    assert clean.stats.repartitioned_groups > 0, (
        "fixture too small to trigger repartitioning — the regression "
        "would not be exercised"
    )
    plan = FaultPlan(seed=17, shuffle_loss_rate=1.0, max_faults_per_task=1)
    ctx = Context(4, executor=executor, task_retries=2, chaos=plan,
                  retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, "cl-p", ctx)
    assert (
        chaotic.stats.repartitioned_groups == clean.stats.repartitioned_groups
    )
    assert _stats(chaotic) == _stats(clean)


# -------------------------------------------------- extension algorithms


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_jaccard_stats_identical(small_dblp, executor):
    clean = jaccard_join(Context(4), small_dblp, 0.4)
    ctx = Context(4, executor=executor, max_workers=2)
    parallel = jaccard_join(ctx, small_dblp, 0.4)
    assert _stats(parallel) == _stats(clean)
    assert ctx.cached_partition_count() == 0


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_metric_partition_stats_identical(small_dblp, executor):
    clean = metric_partition_join(Context(4), small_dblp, 0.2, seed=3)
    ctx = Context(4, executor=executor, max_workers=2)
    parallel = metric_partition_join(ctx, small_dblp, 0.2, seed=3)
    assert _stats(parallel) == _stats(clean)
    assert ctx.cached_partition_count() == 0


# ------------------------------------------------------------ cache hygiene


@per_algorithm
def test_joins_unpersist_their_caches(small_dblp, algorithm):
    """Every RDD a join caches is unpersisted before it returns."""
    ctx = Context(4)
    _run(small_dblp, 0.2, algorithm, ctx)
    assert ctx.cached_partition_count() == 0
