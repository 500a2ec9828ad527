"""Chaos runs must be byte-identical to fault-free serial runs.

The recovery contract of the engine: under any seeded, *completable*
:class:`~repro.minispark.chaos.FaultPlan` — ``task_retries >=
max_faults_per_task`` leaves every task a guaranteed clean attempt —
every distributed algorithm returns exactly the result of a fault-free
serial run.  Retries, backoff, recomputed stages, and speculation may
only ever show up in the metrics, never in the data.

Pinned three ways:

* hypothesis: random tiny-domain datasets x random fault plans
  (transient faults + shuffle loss) x all four join variants,
  comparing full ``(i, j, d)`` tuples;
* the parallel backends under chaos (threads for all variants,
  processes with worker kills for vj) agree with clean serial;
* recovery events are actually visible: a plan that always faults
  produces nonzero retry/chaos counters in the summary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.joins import cl_join, vj_join
from repro.minispark import Context, FaultPlan, RetryPolicy
from repro.rankings import Ranking, RankingDataset

K = 5
DOMAIN = list(range(11))


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

#: No sleeping between attempts: the data contract is what's under test.
_fast_retry = RetryPolicy(backoff_base_seconds=0.0)


def _pairs(result):
    """Full result tuples, sorted — None distances must match too."""
    return sorted(
        result.pairs, key=lambda t: (t[0], t[1], t[2] is None, t[2] or 0.0)
    )


def _run(dataset, theta, algorithm, ctx):
    if algorithm in ("vj", "vj-nl"):
        return vj_join(
            ctx, dataset, theta,
            variant="nl" if algorithm == "vj-nl" else "index",
        )
    kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
    return cl_join(ctx, dataset, theta, theta_c=min(0.03, theta), **kwargs)


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.95]),
    fault_plans,
    st.sampled_from(["vj", "vj-nl", "cl", "cl-p"]),
)
def test_chaos_run_equals_fault_free_serial(dataset, theta, plan, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    chaotic_ctx = Context(
        3, task_retries=plan.max_faults_per_task, chaos=plan,
        retry_policy=_fast_retry,
    )
    chaotic = _run(dataset, theta, algorithm, chaotic_ctx)
    assert _pairs(chaotic) == _pairs(clean)
    ran_tasks = sum(j.num_tasks for j in chaotic_ctx.metrics.jobs)
    if plan.transient_rate == 1.0 and ran_tasks:
        # Every executed attempt rolls a fault, so recovery must be visible.
        summary = chaotic_ctx.metrics.recovery_summary()
        assert summary["chaos_faults"] > 0 and summary["retries"] > 0


@pytest.mark.parametrize("algorithm", ["vj", "vj-nl", "cl", "cl-p"])
def test_chaos_equivalence_on_threads(small_dblp, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    plan = FaultPlan(seed=9, transient_rate=0.3, straggler_rate=0.1,
                     straggler_seconds=0.001, shuffle_loss_rate=0.5)
    ctx = Context(4, executor="threads", task_retries=2, chaos=plan,
                  retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, algorithm, ctx)
    assert _pairs(chaotic) == _pairs(clean)
    assert ctx.metrics.recovery_summary()["chaos_faults"] > 0


def test_chaos_kill_equivalence_on_processes(small_dblp):
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    # Kill rolls key on stage names, i.e. on the process-wide rdd id
    # counter, which the hypothesis tests above advance by a random
    # amount: about one plan seed in eight rolls no kill at all for the
    # handful of multi-task stages here.  Try seeds until one does.
    for seed in range(2, 12):
        plan = FaultPlan(seed=seed, kill_rate=0.4, transient_rate=0.2)
        ctx = Context(4, executor="processes", max_workers=2, task_retries=2,
                      chaos=plan, max_worker_respawns=64,
                      retry_policy=_fast_retry)
        chaotic = _run(small_dblp, 0.2, "vj", ctx)
        assert _pairs(chaotic) == _pairs(clean)
        if ctx.metrics.recovery_summary()["worker_respawns"] >= 1:
            break  # kills really happened
    else:
        pytest.fail("no plan seed killed a worker")
