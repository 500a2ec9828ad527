"""Broadcasts must be invisible in the data and cheap in the accounting.

``Context.broadcast`` files a value in one process-local registry and
hands out a handle (:mod:`repro.minispark.broadcast`).  Pinned here:

* hypothesis: random tiny-domain datasets x all four join variants on
  serial, threads and processes (the last under worker-kill chaos) agree
  with brute force, and nobody ever pickles a payload;
* accounting: stages are charged handle bytes, identity dedup, handles
  pickle by id under ``handles_only()`` and by value anywhere else;
* lifetime: a join releases what it broadcast whether it returns or
  raises, and a processes join never writes into ``/dev/shm``;
* the ``shm_broadcast`` option that used to pick a second plane is gone.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import similarity_join
from repro.bench.harness import RunConfig
from repro.joins.bruteforce import bruteforce_join
from repro.minispark import BroadcastLostError, Context, FaultPlan, RetryPolicy
from repro.minispark.broadcast import Broadcast, handles_only
from repro.minispark.chaos import ChaosError
from repro.rankings import Ranking, RankingDataset

K = 5
DOMAIN = list(range(11))

ALGORITHMS = ("vj", "vj-nl", "cl", "cl-p")

#: No sleeping between attempts: the data contract is what's under test.
_fast_retry = RetryPolicy(backoff_base_seconds=0.0)

#: A pickled managed handle is its id and a reducer name.
HANDLE_BYTES = 128


def datasets(min_size=2, max_size=12):
    ranking = st.permutations(DOMAIN).map(lambda p: tuple(p[:K]))
    return st.lists(ranking, min_size=min_size, max_size=max_size).map(
        lambda rows: RankingDataset(
            [Ranking(i, row) for i, row in enumerate(rows)]
        )
    )


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


def _assert_clean(ctx):
    summary = ctx.broadcast_summary()
    assert summary["live"] == 0
    assert summary["payload_pickles"] == 0


def _killing_processes_context(parallelism, seed):
    plan = FaultPlan(seed=seed, kill_rate=0.4, transient_rate=0.2)
    return Context(parallelism, executor="processes", max_workers=2,
                   task_retries=2, chaos=plan, max_worker_respawns=64,
                   retry_policy=_fast_retry)


def _charged_stages(ctx):
    return [
        stage
        for job in ctx.metrics.jobs
        for stage in job.stages
        if stage.broadcast_handles
    ]


# ---------------------------------------------------------------------------
# Equivalence


@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.sampled_from(ALGORITHMS),
    st.integers(min_value=0, max_value=2**16),
)
def test_join_equals_bruteforce_on_every_backend(
    dataset, theta, algorithm, seed
):
    expected = bruteforce_join(dataset, theta)
    serial_ctx = Context(3)
    serial = _run(dataset, theta, algorithm, serial_ctx)
    # CL's triangle-accepted pairs carry no distance (``None``), so only
    # the pair set and the distances the join verified are comparable
    # with brute force.
    exact = {(i, j): d for i, j, d in expected.pairs}
    assert serial.pair_set() == set(exact)
    assert all(
        d == exact[i, j] for i, j, d in serial.pairs if d is not None
    )
    _assert_clean(serial_ctx)
    for ctx in (Context(3, executor="threads", max_workers=2),
                _killing_processes_context(3, seed)):
        result = _run(dataset, theta, algorithm, ctx)
        assert _pairs(result) == _pairs(serial)
        assert vars(result.stats) == vars(serial.stats)
        _assert_clean(ctx)


@pytest.mark.parametrize("executor", ["threads", "processes"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_parallel_backends_match_serial(small_dblp, executor, algorithm):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    ctx = Context(4, executor=executor, max_workers=2)
    result = _run(small_dblp, 0.2, algorithm, ctx)
    assert _pairs(result) == _pairs(clean)
    assert vars(result.stats) == vars(clean.stats)
    assert ctx.broadcast_summary()["broadcasts"] > 0
    _assert_clean(ctx)


def test_respawned_workers_pickle_no_payload(small_dblp):
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    # Kill rolls key on the process-wide rdd id counter (see
    # test_chaos_kill_equivalence_on_processes): try seeds until one kills.
    for seed in range(2, 12):
        ctx = _killing_processes_context(4, seed)
        chaotic = _run(small_dblp, 0.2, "vj", ctx)
        assert _pairs(chaotic) == _pairs(clean)
        assert vars(chaotic.stats) == vars(clean.stats)
        # Forked workers (respawned ones included) inherit the registry
        # copy-on-write: respawn cost is independent of broadcast size.
        _assert_clean(ctx)
        if ctx.metrics.recovery_summary()["worker_respawns"] >= 1:
            break
    else:
        pytest.fail("no plan seed killed a worker")


# ---------------------------------------------------------------------------
# Accounting: handles ship, payloads don't


def test_per_stage_broadcast_bytes_are_handle_sized(small_dblp):
    ctx = Context(4)
    _run(small_dblp, 0.2, "vj", ctx)
    charged = _charged_stages(ctx)
    assert charged, "no stage referenced a broadcast?"
    for stage in charged:
        assert 0 < stage.broadcast_bytes <= (
            HANDLE_BYTES * stage.broadcast_handles
        ), (stage.name, stage.broadcast_bytes)
    digest = Context(4, tracer=True)
    _run(small_dblp, 0.2, "vj", digest)
    assert digest.tracer.digest()["broadcast"] == {
        "stage_broadcast_bytes": sum(s.broadcast_bytes for s in charged),
        "stage_broadcast_bytes_max": max(s.broadcast_bytes for s in charged),
        "stage_broadcast_handles": sum(s.broadcast_handles for s in charged),
    }


def test_broadcast_bytes_do_not_scale_with_stage_count(small_dblp):
    """Two joins on one context: per-stage cost stays flat (dedup+handles)."""
    ctx = Context(4)
    _run(small_dblp, 0.2, "vj", ctx)
    one_join = ctx.metrics.combined().total_broadcast_bytes
    _run(small_dblp, 0.2, "vj", ctx)
    two_joins = ctx.metrics.combined().total_broadcast_bytes
    _assert_clean(ctx)
    # Each join broadcasts its own store, so the total may double — but
    # never blow up with the payload size.
    assert all(
        stage.broadcast_bytes <= HANDLE_BYTES * stage.broadcast_handles
        for stage in _charged_stages(ctx)
    )
    assert two_joins <= 2 * one_join + HANDLE_BYTES


def test_identity_dedup_returns_same_handle():
    ctx = Context(2)
    value = np.arange(100, dtype=np.int64)
    first = ctx.broadcast(value)
    second = ctx.broadcast(value)
    assert first is second
    assert ctx.broadcasts.counters.dedup_hits == 1
    assert ctx.broadcast(value.copy()) is not first  # identity, not equality
    assert ctx.broadcast_summary()["live"] == 2
    ctx.broadcasts.release_all()
    _assert_clean(ctx)


def test_managed_broadcast_pickles_as_a_handle():
    ctx = Context(2)
    payload = np.arange(100_000, dtype=np.int64)  # 800 KB
    handle = ctx.broadcast(payload)
    with handles_only():
        bare = pickle.dumps(handle)
    assert len(bare) < HANDLE_BYTES
    assert pickle.loads(bare) is handle
    assert ctx.broadcast_summary()["payload_pickles"] == 0
    # Anywhere else the handle must survive a process that does not
    # share the registry, so it embeds the payload — and says so.
    by_value = pickle.dumps(handle)
    assert len(by_value) > payload.nbytes
    assert ctx.broadcast_summary()["payload_pickles"] == 1
    ctx.broadcasts.release_all()
    np.testing.assert_array_equal(pickle.loads(by_value).value, payload)
    with pytest.raises(BroadcastLostError):
        pickle.loads(bare)


def test_bare_broadcast_still_pickles_by_value():
    bare = Broadcast([1, 2, 3])
    clone = pickle.loads(pickle.dumps(bare))
    assert clone.value == [1, 2, 3]


# ---------------------------------------------------------------------------
# Lifetime


# One algorithm per push_scope/pop_scope site in repro.joins.
@pytest.mark.parametrize(
    "algorithm", ["vj", "cl-p", "jaccard", "metric-partition"]
)
@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_join_scope_releases_its_broadcasts(small_dblp, algorithm, outcome):
    chaos = None
    if outcome == "raises":  # every first attempt fails, nothing retries
        chaos = FaultPlan(seed=1, transient_rate=1.0)
    ctx = Context(4, chaos=chaos)
    kept = ctx.broadcast(("made", "outside", "the", "join"))
    if outcome == "raises":
        with pytest.raises(ChaosError):
            _run(small_dblp, 0.2, algorithm, ctx)
    else:
        _run(small_dblp, 0.2, algorithm, ctx)
    assert ctx.broadcast_summary()["live"] == 1
    assert ctx.broadcast(kept.value) is kept


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)
def test_processes_join_never_touches_dev_shm(small_dblp, monkeypatch):
    before = sorted(os.listdir("/dev/shm"))
    ctx = Context(4, executor="processes", max_workers=2)
    charge_stage = ctx.broadcasts.charge_stage
    during = []

    def spy(roots):
        # Runs before every stage: the join's broadcasts already exist.
        during.append(sorted(os.listdir("/dev/shm")))
        return charge_stage(roots)

    monkeypatch.setattr(ctx.broadcasts, "charge_stage", spy)
    _run(small_dblp, 0.2, "cl-p", ctx)
    assert len(during) > 3
    assert all(listing == before for listing in during)
    assert sorted(os.listdir("/dev/shm")) == before


# ---------------------------------------------------------------------------
# The second plane and its option are gone


def test_shm_broadcast_keyword_is_gone(small_dblp):
    with pytest.raises(TypeError):
        similarity_join(small_dblp, 0.2, algorithm="vj", shm_broadcast=False)
    with pytest.raises(TypeError):
        Context(4, shm_broadcast=False)
    with pytest.raises(TypeError):
        RunConfig("vj", "dblp", 0.2, shm_broadcast=False)
    with pytest.raises(TypeError):
        FaultPlan(shm_unlink_rate=1.0)
