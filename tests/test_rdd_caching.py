"""Caching semantics and shuffle memoization."""

import multiprocessing
import os
import time

import pytest

from repro import similarity_join
from repro.minispark import (
    Context,
    FaultPlan,
    RetryPolicy,
    SpeculationPolicy,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="processes executor needs the fork start method",
)


@pytest.fixture(
    params=["serial", "threads", pytest.param("processes", marks=needs_fork)]
)
def backend_ctx(request):
    return Context(default_parallelism=4, executor=request.param,
                   max_workers=2)


def _logged(path):
    """A map closure that appends one line per call: worker-side lists
    do not propagate, one-line ``O_APPEND`` writes do."""

    def traced(x):
        with open(path, "a") as handle:
            handle.write(f"{x}\n")
        return x * 3

    return traced


def _calls(path):
    with open(path) as handle:
        return sorted(int(line) for line in handle)


class TestCacheOnEveryBackend:
    def test_closure_runs_once_per_partition_across_jobs(
        self, backend_ctx, tmp_path
    ):
        log = tmp_path / "calls"
        rdd = backend_ctx.parallelize(range(12), 4).map(_logged(log)).cache()
        assert rdd.count() == 12
        assert rdd.collect() == [x * 3 for x in range(12)]
        assert rdd.map(lambda x: x + 1).sum() == sum(range(12)) * 3 + 12
        assert _calls(log) == list(range(12))
        assert backend_ctx.cached_partition_count() == 4

    def test_cached_parent_of_a_shuffle_is_reused(self, backend_ctx, tmp_path):
        log = tmp_path / "calls"
        base = backend_ctx.parallelize(range(12), 4).map(_logged(log)).cache()
        by_parity = base.map(lambda x: (x % 2, x)).reduce_by_key(
            lambda a, b: a + b, 4
        )
        assert dict(by_parity.collect()) == {0: 90, 1: 108}
        assert base.count() == 12
        assert _calls(log) == list(range(12))

    def test_unpersist_drops_the_partitions(self, backend_ctx, tmp_path):
        log = tmp_path / "calls"
        rdd = backend_ctx.parallelize(range(6), 3).map(_logged(log)).cache()
        rdd.count()
        assert backend_ctx.cached_partition_count() == 3
        rdd.unpersist()
        assert backend_ctx.cached_partition_count() == 0
        rdd.count()
        assert _calls(log) == sorted(2 * list(range(6)))
        assert backend_ctx.cached_partition_count() == 0

    def test_unpicklable_partition_is_recomputed_not_fatal(self, backend_ctx):
        rdd = backend_ctx.parallelize(range(4), 2).map(
            lambda x: (lambda: x)
        ).cache()
        assert rdd.count() == 4
        assert rdd.map(lambda f: f()).collect() == [0, 1, 2, 3]


@needs_fork
class TestCacheAcrossForks:
    def test_driver_holds_shipped_partitions_pickled(self):
        ctx = Context(default_parallelism=4, executor="processes",
                      max_workers=2)
        rdd = ctx.parallelize(range(8), 4).map(lambda x: x + 1).cache()
        rdd.count()
        assert sorted(rdd._cache_store) == [0, 1, 2, 3]
        assert all(
            isinstance(part, bytes) for part in rdd._cache_store.values()
        )
        assert rdd.collect() == list(range(1, 9))  # decoded in the workers

    def test_worker_kill_mid_stage_keeps_results_and_cache(self, tmp_path):
        log = tmp_path / "calls"
        marker = tmp_path / "died-once"

        def fragile(x):
            if x == 21 and not marker.exists():
                marker.write_text("x")
                os._exit(1)
            return x

        ctx = Context(default_parallelism=6, executor="processes",
                      max_workers=2)
        rdd = (
            ctx.parallelize(range(12), 6)
            .map(_logged(log))
            .cache()
        )
        assert rdd.map(fragile).collect() == [x * 3 for x in range(12)]
        assert ctx.metrics.jobs[-1].total_worker_respawns == 1
        first = _calls(log)
        # Only the partition the killed task had cached is computed again.
        assert first == sorted(list(range(12)) + [6, 7])
        assert rdd.collect() == [x * 3 for x in range(12)]
        assert _calls(log) == first

    @pytest.mark.parametrize("algorithm", ["vj", "vj-nl", "cl", "cl-p"])
    def test_chaos_kills_leave_joins_identical_and_unpinned(
        self, small_dblp, algorithm
    ):
        kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
        clean = similarity_join(
            small_dblp, 0.2, algorithm=algorithm, num_partitions=4, **kwargs
        )
        for chaos in (None, FaultPlan(seed=5, kill_rate=0.2)):
            ctx = Context(default_parallelism=4, executor="processes",
                          max_workers=2, chaos=chaos, max_worker_respawns=64)
            result = similarity_join(
                small_dblp, 0.2, algorithm=algorithm, ctx=ctx,
                num_partitions=4, **kwargs
            )
            assert result.pairs == clean.pairs
            assert vars(result.stats) == vars(clean.stats)
            assert ctx.cached_partition_count() == 0
            assert ctx.executor.name == "processes"  # never degraded
            if chaos is None:  # nothing was computed twice
                assert not any(
                    job.total_stats_deltas_deduped for job in ctx.metrics.jobs
                )

    def test_oversubscribed_chaotic_stage_matches_serial(self):
        """More workers than cores, big results, kills, transient
        faults, stragglers and driver-side duplicates all in one stage:
        same values, every partition pinned, no worker left behind."""
        chaos = FaultPlan(seed=11, kill_rate=0.15, transient_rate=0.2,
                          straggler_rate=0.1)
        ctx = Context(
            default_parallelism=48, executor="processes", max_workers=6,
            chaos=chaos, task_retries=3, max_worker_respawns=64,
            retry_policy=RetryPolicy(backoff_base_seconds=0.0),
            speculation=SpeculationPolicy(min_seconds=0.02,
                                          poll_seconds=0.005),
        )
        rdd = ctx.parallelize(range(96), 48).map(
            lambda x: bytes([x]) * (64 * 1024)
        ).cache()
        expected = [bytes([x]) * (64 * 1024) for x in range(96)]
        start = time.perf_counter()
        assert rdd.collect() == expected
        assert rdd.collect() == expected
        assert time.perf_counter() - start < 30
        assert ctx.cached_partition_count() == 48
        assert ctx.metrics.recovery_summary()["worker_respawns"] >= 1
        assert multiprocessing.active_children() == []

    def test_all_pipes_are_drained_at_once(self):
        """A worker must never wait in ``send`` behind a sibling's
        unread results: 8 tasks x 0.1 s on 2 workers is 0.4 s of wall
        when they overlap, >= 0.8 s when the pipes are read in turn."""
        payload = 256 * 1024

        def slow(x):
            time.sleep(0.1)
            return bytes(payload)

        ctx = Context(default_parallelism=8, executor="processes",
                      max_workers=2)
        rdd = ctx.parallelize(range(8), 8).map(slow)
        start = time.perf_counter()
        parts = rdd.collect()
        wall = time.perf_counter() - start
        assert [len(part) for part in parts] == [payload] * 8
        assert wall < 0.6


class TestCache:
    def test_cached_rdd_computes_once(self, ctx):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5), 2).map(traced).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 5

    def test_uncached_rdd_recomputes(self, ctx):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(5), 2).map(traced)
        rdd.collect()
        rdd.collect()
        assert len(calls) == 10

    def test_unpersist_drops_cache(self, ctx):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(3), 1).map(traced).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 6

    def test_cache_returns_self(self, ctx):
        rdd = ctx.parallelize([1], 1)
        assert rdd.cache() is rdd

    def test_cached_results_equal_fresh(self, ctx):
        rdd = ctx.parallelize(range(20), 4).map(lambda x: x * 3).cache()
        assert rdd.collect() == rdd.collect() == [x * 3 for x in range(20)]


class TestShuffleMemoization:
    def test_shuffle_map_stage_runs_once(self, ctx):
        calls = []

        def traced(x):
            calls.append(x)
            return (x % 2, x)

        grouped = ctx.parallelize(range(6), 2).map(traced).group_by_key()
        grouped.collect()
        grouped.collect()
        # The map side feeding the shuffle is materialized once and reused
        # (like Spark's shuffle files).
        assert len(calls) == 6

    def test_downstream_of_shuffle_recomputes(self, ctx):
        post_shuffle_calls = []

        def traced(kv):
            post_shuffle_calls.append(kv)
            return kv

        grouped = (
            ctx.parallelize([(1, 2)], 1).group_by_key().map(traced)
        )
        grouped.collect()
        grouped.collect()
        assert len(post_shuffle_calls) == 2
