"""Spill-forced runs must be byte-identical to in-memory runs.

The out-of-core contract: under any memory budget — including one so
tiny that every shuffle bucket spills to disk — and under any seeded,
*completable* disk-fault plan (segment deletion, corruption, truncation,
injected ENOSPC on write), every distributed algorithm returns exactly
the pairs and exactly the ``JoinStats`` of an unbounded in-memory run.
Spilling and recovery may only ever show up in the metrics, never in
the data.

Pinned three ways, mirroring ``test_chaos_equivalence``:

* hypothesis: random tiny-domain datasets x budgets x all four join
  variants, with and without disk-fault plans;
* the parallel backends (threads and processes) under a 1-byte budget
  plus disk faults agree with clean in-memory serial;
* spill hygiene: every run ends with zero leaked segment files.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import similarity_join
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


disk_fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    spill_fault_rate=st.sampled_from([0.0, 0.3, 1.0]),
    spill_write_error_rate=st.sampled_from([0.0, 0.5, 1.0]),
    shuffle_loss_rate=st.sampled_from([0.0, 0.5]),
    max_faults_per_task=st.integers(min_value=1, max_value=3),
)

#: No sleeping between attempts: the data contract is what's under test.
_fast_retry = RetryPolicy(backoff_base_seconds=0.0)

ALGORITHMS = ("vj", "vj-nl", "cl", "cl-p")


def _pairs(result):
    """Full result tuples, sorted — None distances must match too."""
    return sorted(
        result.pairs, key=lambda t: (t[0], t[1], t[2] is None, t[2] or 0.0)
    )


def _run(dataset, theta, algorithm, ctx):
    kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
    if algorithm in ("cl", "cl-p"):
        kwargs["theta_c"] = min(0.03, theta)
    return similarity_join(
        dataset, theta, algorithm=algorithm, ctx=ctx, **kwargs
    )


def _assert_equivalent(budgeted_ctx, budgeted, clean):
    assert _pairs(budgeted) == _pairs(clean)
    assert vars(budgeted.stats) == vars(clean.stats)
    assert budgeted_ctx.spill.leaked_files() == 0


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.95]),
    st.sampled_from([1, 256, 4096]),  # all-spill .. mixed memory/disk
    st.sampled_from(ALGORITHMS),
)
def test_spill_forced_run_equals_in_memory(dataset, theta, budget, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    ctx = Context(3, memory_budget_bytes=budget)
    budgeted = _run(dataset, theta, algorithm, ctx)
    _assert_equivalent(ctx, budgeted, clean)
    summary = ctx.spill_summary()
    assert summary["peak_tracked_bytes"] <= budget


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.1, 0.2, 0.4]),
    disk_fault_plans,
    st.sampled_from(ALGORITHMS),
)
def test_disk_fault_run_equals_in_memory(dataset, theta, plan, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    ctx = Context(
        3, memory_budget_bytes=1, chaos=plan,
        task_retries=plan.max_faults_per_task, retry_policy=_fast_retry,
    )
    faulted = _run(dataset, theta, algorithm, ctx)
    _assert_equivalent(ctx, faulted, clean)
    summary = ctx.spill_summary()
    if plan.spill_write_error_rate == 1.0 and summary["spill_files"]:
        # Every segment write rolls an injected ENOSPC first, so the
        # retry path must be visible whenever anything spilled.
        assert summary["write_errors"] > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_spill_equivalence_on_threads(small_dblp, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    plan = FaultPlan(seed=9, spill_fault_rate=0.5,
                     spill_write_error_rate=0.3, shuffle_loss_rate=0.5)
    ctx = Context(4, executor="threads", memory_budget_bytes=1,
                  chaos=plan, task_retries=2, retry_policy=_fast_retry)
    budgeted = _run(small_dblp, 0.2, algorithm, ctx)
    _assert_equivalent(ctx, budgeted, clean)
    summary = ctx.spill_summary()
    assert summary["spill_files"] > 0
    assert summary["faults_injected"] > 0  # faults really happened


@pytest.mark.parametrize("algorithm", ["vj", "cl"])
def test_spill_equivalence_on_processes(small_dblp, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    plan = FaultPlan(seed=2, spill_fault_rate=0.5)
    ctx = Context(4, executor="processes", max_workers=2,
                  memory_budget_bytes=1, chaos=plan, task_retries=2,
                  retry_policy=_fast_retry)
    budgeted = _run(small_dblp, 0.2, algorithm, ctx)
    _assert_equivalent(ctx, budgeted, clean)
    # Workers returned segment refs: segments were written (in children)
    # and adopted by the driver.
    assert ctx.spill_summary()["spill_files"] > 0
