"""The zero-copy broadcast plane must be invisible in the data.

The broadcast contract: whether a broadcast value travels through a
shared-memory segment (the default where supported), through pickle
(``shm_broadcast=False``, or any platform without
``multiprocessing.shared_memory``), or through a chaos-forced mid-run
fallback from one plane to the other, every algorithm returns exactly
the pairs and exactly the ``JoinStats`` of the other planes.  The plane
may only ever show up in the metrics, never in the data.

Pinned the same three ways as ``test_spill_equivalence``:

* hypothesis: random tiny-domain datasets x all four join variants,
  shm plane vs pickle plane vs brute force;
* the parallel backends (threads and processes) on both planes agree
  with clean serial, including under seeded segment-unlink chaos and
  under worker-kill chaos (respawned workers re-attach for free);
* segment hygiene: every run ends with zero live and zero leaked
  segments — no shared-memory segment outlives a join.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import similarity_join
from repro.joins.bruteforce import bruteforce_join
from repro.minispark import Context, FaultPlan, RetryPolicy
from repro.minispark import broadcast as broadcast_module
from repro.minispark.broadcast import Broadcast, handles_only, shm_available
from repro.rankings import Ranking, RankingDataset
from repro.rankings.encoding import ColumnarStore

K = 5
DOMAIN = list(range(11))

ALGORITHMS = ("vj", "vj-nl", "cl", "cl-p")

#: No sleeping between attempts: the data contract is what's under test.
_fast_retry = RetryPolicy(backoff_base_seconds=0.0)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


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
    assert ctx.broadcasts.live_segments() == 0
    assert ctx.broadcasts.leaked_segments() == 0


# ---------------------------------------------------------------------------
# Plane equivalence


@needs_shm
@settings(max_examples=25, deadline=None)
@given(
    datasets(),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.sampled_from(ALGORITHMS),
)
def test_shm_run_equals_pickle_run_equals_bruteforce(
    dataset, theta, algorithm
):
    expected = bruteforce_join(dataset, theta)
    shm_ctx = Context(3, shm_broadcast=True)
    shm = _run(dataset, theta, algorithm, shm_ctx)
    pickle_ctx = Context(3, shm_broadcast=False)
    pickled = _run(dataset, theta, algorithm, pickle_ctx)
    assert _pairs(shm) == _pairs(pickled)
    # CL's triangle-accepted pairs carry no distance (``None``), so only
    # the pair set and the distances the join verified are comparable
    # with brute force.
    exact = {(i, j): d for i, j, d in expected.pairs}
    assert shm.pair_set() == set(exact)
    assert all(
        d == exact[i, j] for i, j, d in shm.pairs if d is not None
    )
    assert vars(shm.stats) == vars(pickled.stats)
    _assert_clean(shm_ctx)
    _assert_clean(pickle_ctx)
    assert pickle_ctx.broadcasts.summary()["segments"] == 0


@needs_shm
@pytest.mark.parametrize("executor", ["threads", "processes"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plane_equivalence_on_parallel_backends(
    small_dblp, executor, algorithm
):
    clean = _run(small_dblp, 0.2, algorithm, Context(4))
    for shm in (True, False):
        ctx = Context(4, executor=executor, max_workers=2,
                      shm_broadcast=shm)
        result = _run(small_dblp, 0.2, algorithm, ctx)
        assert _pairs(result) == _pairs(clean)
        assert vars(result.stats) == vars(clean.stats)
        _assert_clean(ctx)
        summary = ctx.broadcasts.summary()
        if shm:
            assert summary["segments"] > 0  # the plane really engaged


# ---------------------------------------------------------------------------
# Chaos: segment unlinked under the join's feet -> pickle fallback


@needs_shm
@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_unlinked_segment_falls_back_to_pickle(small_dblp, executor):
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    plan = FaultPlan(seed=3, shm_unlink_rate=1.0)
    ctx = Context(4, executor=executor, max_workers=2, chaos=plan,
                  shm_broadcast=True, retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, "vj", ctx)
    assert _pairs(chaotic) == _pairs(clean)
    assert vars(chaotic.stats) == vars(clean.stats)
    _assert_clean(ctx)
    summary = ctx.broadcasts.summary()
    assert summary["faults_injected"] > 0  # faults really happened
    assert summary["fallbacks"] > 0  # ... and were recovered from
    # The ladder is recorded the same way spill->memory fallbacks are.
    assert any(
        f["from"] == "shm" and f["to"] == "pickle"
        for f in ctx.metrics.fallbacks
    )


@needs_shm
@given(
    datasets(),
    st.sampled_from([0.1, 0.2, 0.4]),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([0.3, 1.0]),
    st.sampled_from(ALGORITHMS),
)
@settings(max_examples=25, deadline=None)
def test_unlink_chaos_run_equals_clean(dataset, theta, seed, rate, algorithm):
    clean = _run(dataset, theta, algorithm, Context(3))
    plan = FaultPlan(seed=seed, shm_unlink_rate=rate)
    ctx = Context(3, chaos=plan, shm_broadcast=True,
                  retry_policy=_fast_retry)
    chaotic = _run(dataset, theta, algorithm, ctx)
    assert _pairs(chaotic) == _pairs(clean)
    assert vars(chaotic.stats) == vars(clean.stats)
    _assert_clean(ctx)


# ---------------------------------------------------------------------------
# Worker respawns re-attach from the registry


@needs_shm
def test_respawned_workers_reattach_for_free(small_dblp):
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    plan = FaultPlan(seed=2, kill_rate=0.4, transient_rate=0.2)
    ctx = Context(4, executor="processes", max_workers=2, task_retries=2,
                  chaos=plan, max_worker_respawns=64,
                  shm_broadcast=True, retry_policy=_fast_retry)
    chaotic = _run(small_dblp, 0.2, "vj", ctx)
    assert _pairs(chaotic) == _pairs(clean)
    assert vars(chaotic.stats) == vars(clean.stats)
    _assert_clean(ctx)
    summary = ctx.broadcasts.summary()
    # Forked workers (respawned ones included) inherit the registry
    # copy-on-write: nobody ever re-pickles a payload or re-maps a
    # segment, so respawn cost is independent of broadcast size.
    assert summary["payload_pickles"] == 0
    assert summary["attaches"] == 0


# ---------------------------------------------------------------------------
# Accounting: handles ship, payloads don't


@needs_shm
def test_per_stage_broadcast_bytes_are_handle_sized(small_dblp):
    shm_ctx = Context(4, shm_broadcast=True)
    _run(small_dblp, 0.2, "vj", shm_ctx)
    pickle_ctx = Context(4, shm_broadcast=False)
    _run(small_dblp, 0.2, "vj", pickle_ctx)

    def stage_bytes(ctx):
        return {
            stage.name: stage.broadcast_bytes
            for job in ctx.metrics.jobs
            for stage in job.stages
            if stage.broadcast_handles
        }

    shm_stages = stage_bytes(shm_ctx)
    pickle_stages = stage_bytes(pickle_ctx)
    assert shm_stages, "no stage referenced a broadcast?"
    # On the shm plane a stage ships segment names, not payloads: every
    # charged stage stays within a few hundred bytes per handle.
    for name, nbytes in shm_stages.items():
        assert nbytes < 1024, (name, nbytes)
    # The pickle plane charges the payload per referencing stage — the
    # columnar store dwarfs its handle.
    assert max(pickle_stages.values()) > max(shm_stages.values())
    assert (
        shm_ctx.metrics.combined().total_broadcast_bytes
        < pickle_ctx.metrics.combined().total_broadcast_bytes
    )


@needs_shm
def test_broadcast_bytes_do_not_scale_with_stage_count(small_dblp):
    """Two joins on one context: per-stage cost stays flat (dedup+handles)."""
    ctx = Context(4, shm_broadcast=True)
    _run(small_dblp, 0.2, "vj", ctx)
    one_join = ctx.metrics.combined().total_broadcast_bytes
    _run(small_dblp, 0.2, "vj", ctx)
    two_joins = ctx.metrics.combined().total_broadcast_bytes
    _assert_clean(ctx)
    # Each join publishes its own segments, so the total may double —
    # but never blow up with the payload size.
    charged = [
        stage.broadcast_bytes
        for job in ctx.metrics.jobs
        for stage in job.stages
        if stage.broadcast_handles
    ]
    assert all(nbytes < 1024 for nbytes in charged)
    assert two_joins <= 2 * one_join + 1024


def test_identity_dedup_returns_same_handle():
    ctx = Context(2)
    value = np.arange(100, dtype=np.int64)
    first = ctx.broadcast(value)
    second = ctx.broadcast(value)
    assert first is second
    assert ctx.broadcasts.counters.dedup_hits == 1
    assert ctx.broadcasts.summary()["segments"] <= 1
    ctx.broadcasts.release_all()
    _assert_clean(ctx)


@needs_shm
def test_managed_broadcast_pickles_as_a_handle():
    ctx = Context(2, shm_broadcast=True)
    payload = np.arange(100_000, dtype=np.int64)  # 800 KB
    handle = ctx.broadcast(payload)
    try:
        blob = pickle.dumps(handle)
        assert len(blob) < 512, len(blob)
        clone = pickle.loads(blob)
        np.testing.assert_array_equal(clone.value, payload)
        with handles_only():
            assert len(pickle.dumps(handle)) < 512
    finally:
        ctx.broadcasts.release_all()
    _assert_clean(ctx)


def test_bare_broadcast_still_pickles_by_value():
    bare = Broadcast([1, 2, 3])
    clone = pickle.loads(pickle.dumps(bare))
    assert clone.value == [1, 2, 3]


# ---------------------------------------------------------------------------
# Platform fallback: no shared_memory module at all


def test_without_shared_memory_module_everything_still_works(
    small_dblp, monkeypatch
):
    monkeypatch.setattr(broadcast_module, "_shared_memory", None)
    assert not shm_available()
    clean = _run(small_dblp, 0.2, "vj", Context(4))
    ctx = Context(4)  # auto-detect lands on the pickle plane
    assert not ctx.broadcasts.enabled
    result = _run(small_dblp, 0.2, "vj", ctx)
    assert _pairs(result) == _pairs(clean)
    assert ctx.broadcasts.summary()["segments"] == 0
    _assert_clean(ctx)


# ---------------------------------------------------------------------------
# ColumnarStore shared-memory codec


@needs_shm
def test_columnar_store_shm_roundtrip_is_byte_identical(small_dblp):
    from repro.joins.compact import compact_ordering

    ctx = Context(2, shm_broadcast=False)
    rdd = ctx.parallelize(small_dblp.rankings, 2)
    _ordered, store_handle, _encoder = compact_ordering(ctx, rdd, "overlap")
    store = store_handle.value

    meta, buffers = store.to_shm()
    offsets = []
    cursor = 0
    blob = bytearray()
    for buf in buffers:
        arr = np.ascontiguousarray(buf)
        pad = (-cursor) % 8
        blob.extend(b"\0" * pad)
        cursor += pad
        offsets.append(cursor)
        blob.extend(arr.tobytes())
        cursor += arr.nbytes
    meta = dict(meta, offsets=offsets)
    clone = ColumnarStore.from_shm(meta, memoryview(bytes(blob)))

    np.testing.assert_array_equal(clone.rids, store.rids)
    np.testing.assert_array_equal(clone.codes, store.codes)
    assert clone.num_codes == store.num_codes
    assert clone.row_of == store.row_of
    assert not clone.codes.flags.writeable  # views are read-only
    for rid in store.rids[:10]:
        rid = int(rid)
        assert clone[rid].ranking.items == store[rid].ranking.items
    np.testing.assert_array_equal(
        clone.rows_of(store.rids[:5]), store.rows_of(store.rids[:5])
    )
    ctx.broadcasts.release_all()
