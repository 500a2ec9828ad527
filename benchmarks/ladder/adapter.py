"""The ladder's only door into ``repro``.

Every other file of the benchmark works on what this module returns:
numpy arrays, plain dicts, and small handles whose methods are defined
here.  An API change in ``repro`` is followed here and nowhere else.

Nothing here passes ``token_format``, ``kernel`` or ``shm_broadcast``,
and nothing imports ``repro.bench``.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    raise SystemExit(f"benchmark needs the program's source at {_SRC}/repro")
sys.path.insert(0, str(_SRC))

from repro import Context, make_dataset as _make_dataset, similarity_join  # noqa: E402
from repro.joins.kernels import (  # noqa: E402
    GroupColumns, batch_filter_verify, store_batch_verify,
)
from repro.rankings.bounds import raw_threshold  # noqa: E402
from repro.rankings.dataset import RankingDataset  # noqa: E402
from repro.rankings.encoding import (  # noqa: E402
    ColumnarStore, ItemEncoder, encode_ordered,
)
from repro.rankings.ordering import item_frequencies  # noqa: E402
from repro.rankings.ranking import Ranking  # noqa: E402
from repro.serving import (  # noqa: E402
    SearchService, ShardedIndex, delta_join as _delta_join, serve_tcp,
)

ALGORITHM_OF = {"vj": "vj", "vjnl": "vj-nl", "cl": "cl", "clp": "cl-p"}
JOIN_STATS = ("candidates", "position_filtered", "triangle_filtered",
              "verified", "results", "repartitioned_groups")


# ------------------------------------------------------------------ datasets

def make_dataset(name: str, **params):
    return _make_dataset(name, **params)


def dataset_arrays(dataset) -> tuple:
    """``(rids, items)`` numpy view of a dataset, for the oracle."""
    rankings = list(dataset)
    rids = np.fromiter((r.rid for r in rankings), dtype=np.int64, count=len(rankings))
    items = np.array([r.items for r in rankings], dtype=np.int64)
    return rids, items


def rankings_of(dataset) -> list:
    return list(dataset)


def renumbered(rankings, start: int = 0) -> list:
    """The same rankings with rids ``start, start + 1, ...``."""
    return [Ranking(start + i, r.items) for i, r in enumerate(rankings)]


# --------------------------------------------------------------------- joins

def run_join(dataset, theta: float, name: str, *, num_partitions: int,
             delta: int | None = None, trace: bool = False, **plane) -> dict:
    """One timed ``similarity_join`` call plus what its context reports.

    ``plane`` is passed to ``Context`` (``executor``/``max_workers`` or
    ``memory_budget_bytes``); empty means the serial in-memory default.
    """
    options = {"partition_threshold": delta} if name == "clp" else {}
    start = time.perf_counter()
    ctx = Context(tracer=bool(trace), **plane)
    result = similarity_join(dataset, theta, algorithm=ALGORITHM_OF[name],
                             ctx=ctx, num_partitions=num_partitions, **options)
    wall = time.perf_counter() - start
    job = ctx.metrics.combined()
    stage_wall = job.total_wall_seconds
    recovery = ctx.metrics.recovery_summary()
    return {
        "wall_s": wall,
        "pairs": [(a, b) for a, b, _distance in result.pairs],
        "phase_seconds": dict(result.phase_seconds),
        "stats": {field: getattr(result.stats, field) for field in JOIN_STATS},
        "scheduler": {
            "stages": len(job.stages),
            "tasks": job.num_tasks,
            "task_busy_s": job.total_task_seconds,
            "stage_wall_s": stage_wall,
            "driver_gap_s": wall - stage_wall,
            # Wall-weighted, so a microsecond stage cannot set the figure.
            "task_skew_max_over_mean": (
                sum(s.wall_seconds * s.skew_ratio() for s in job.stages) / stage_wall
                if stage_wall else 1.0
            ),
            "shuffle_records": job.total_shuffle_records,
            "shuffle_bytes": job.total_shuffle_bytes,
            "broadcast_stage_bytes": job.total_broadcast_bytes,
        },
        "recovery": {
            "worker_respawns": recovery["worker_respawns"],
            "retries": recovery["retries"],
            "fallbacks": len(recovery["executor_fallbacks"]),
        },
        "spill": dict(ctx.spill_summary(),
                      leaked_files_after=ctx.spill.leaked_files() if ctx.spill else 0),
        "broadcast": ctx.broadcast_summary(),
        "digest": ctx.tracer.digest() if trace else None,
    }


def _spin(seconds: float) -> float:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return seconds


def warm_both_cores(seconds: float) -> None:
    """Keep two worker processes busy for ``seconds``, untimed.

    On the 2-vCPU sandbox a core that idled for some tens of seconds runs
    at about half speed for its first second of work, which charged the
    first stages of a processes-plane join double on every third run or
    so.  The serial planes never see this: their one core is always busy.
    """
    Context(executor="processes", max_workers=2).parallelize(
        [seconds, seconds], 2).map(_spin).collect()


# ------------------------------------------------------------------- serving

class Service:
    """A ``SearchService`` over a ``ShardedIndex`` (or a proxy around one)."""

    def __init__(self, index, cache_size: int):
        self.index = index
        self._service = SearchService(index, cache_size=cache_size)

    async def query(self, ranking, theta: float) -> list:
        return await self._service.search(ranking, theta)

    async def insert(self, ranking) -> None:
        await self._service.insert(ranking)

    async def delete(self, rid: int) -> None:
        await self._service.delete(rid)

    def stats(self) -> dict:
        return self._service.stats_snapshot()

    async def start_tcp(self, host: str = "127.0.0.1"):
        """Listen on an ephemeral port; returns ``(server, port)``."""
        server = await serve_tcp(self._service, host, 0)
        return server, server.sockets[0].getsockname()[1]


def build_sharded(rankings, *, num_shards: int, theta_max: float):
    return ShardedIndex(RankingDataset(rankings), kind="prefix",
                        num_shards=num_shards, theta_max=theta_max)


def delta_join(arrivals, index, theta: float) -> dict:
    start = time.perf_counter()
    result = _delta_join(arrivals, index, theta)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "pairs": {(a, b) for a, b, _distance in result.pairs}}


def tcp_query_line(ranking, theta: float) -> bytes:
    return (json.dumps({"op": "query", "rid": ranking.rid,
                        "items": list(ranking.items), "theta": theta,
                        "include_self": False}) + "\n").encode()


# -------------------------------------------------------------------- probes
# Direct timed calls into one layer's public functions, traced run only.
# Each returns {metric name: value}; units live in BENCHMARK.json.

def _median_us(samples) -> float:
    return float(np.median(samples)) * 1e6


def probe_rankings(dataset) -> tuple:
    """Frequencies, encode + store build; returns ``(metrics, store)``."""
    rankings = list(dataset)
    start = time.perf_counter()
    frequencies = item_frequencies(rankings)
    frequencies_s = time.perf_counter() - start
    start = time.perf_counter()
    encoder = ItemEncoder(frequencies)
    ordered = [encode_ordered(r, encoder) for r in rankings]
    store = ColumnarStore.from_ordered(ordered, len(encoder))
    encode_store_s = time.perf_counter() - start
    return {
        "rankings.ordering.frequencies_s": frequencies_s,
        "rankings.encoding.encode_store_s": encode_store_s,
        "rankings.encoding.store_bytes": len(pickle.dumps(store)),
    }, store


def probe_kernels(store, theta: float, rng, *, verify_pairs: int,
                  small_groups: int, chunk: int = 1 << 16) -> dict:
    n, k = store.codes.shape
    theta_raw = raw_threshold(theta, k)
    rids = store.rids
    busy = 0.0
    for begin in range(0, verify_pairs, chunk):
        size = min(chunk, verify_pairs - begin)
        left = rids[rng.integers(0, n, size)].tolist()
        right = rids[rng.integers(0, n, size)].tolist()
        start = time.perf_counter()
        store_batch_verify(store, left, right, theta_raw)
        busy += time.perf_counter() - start
    ii, jj = np.triu_indices(8, k=1)
    small = []
    for _ in range(small_groups):
        rows = rng.choice(n, size=min(8, n), replace=False)
        start = time.perf_counter()
        cols = GroupColumns.from_store(store, rows)
        batch_filter_verify(cols, ii, jj, theta_raw)
        small.append(time.perf_counter() - start)
    build = []
    for _ in range(40):
        rows = rng.choice(n, size=min(512, n), replace=False)
        start = time.perf_counter()
        GroupColumns.from_store(store, rows)
        build.append(time.perf_counter() - start)
    return {
        "joins.kernels.verify_mpairs_per_s": verify_pairs / busy / 1e6,
        "joins.kernels.small_group_call_us": _median_us(small),
        "joins.kernels.columns_build_us": _median_us(build),
    }


def _identity(value):
    return value


def probe_engine(rng, *, shuffle_records: int, num_partitions: int) -> dict:
    keys = rng.integers(0, max(1, shuffle_records // 20), shuffle_records).tolist()
    data = list(zip(keys, range(shuffle_records)))
    ctx = Context()
    start = time.perf_counter()
    ctx.parallelize(data, num_partitions).group_by_key().map_values(len).collect()
    shuffle_s = time.perf_counter() - start
    metrics = {"minispark.rdd.shuffle_us_per_record": shuffle_s / shuffle_records * 1e6}
    for label, plane in (("serial", {}),
                         ("processes", {"executor": "processes", "max_workers": 2})):
        samples = []
        for _ in range(3):
            ctx = Context(**plane)
            start = time.perf_counter()
            ctx.parallelize(range(num_partitions), num_partitions).map(_identity).collect()
            samples.append(time.perf_counter() - start)
        metrics[f"minispark.executors.noop_stage_ms.{label}"] = float(np.median(samples)) * 1e3
    return metrics


def probe_search(residents, spares, queries, theta: float, theta_max: float) -> dict:
    """Build / query / insert / delete both index kinds on one shard's
    residents.  ``spares`` are rankings not among the residents."""
    metrics = {}
    dataset = RankingDataset(residents)
    for label in ("prefix", "coarse"):
        start = time.perf_counter()
        # One-shard ShardedIndex: the public way to get a shard configured
        # exactly as serving configures it (no ``kernel=`` chosen here).
        index = ShardedIndex(dataset, kind=label, num_shards=1, theta_max=theta_max)
        metrics[f"search.{label}.build_s"] = time.perf_counter() - start
        before = (index.stats.candidates, index.stats.verified, index.stats.results)
        singles = []
        for query in queries:
            start = time.perf_counter()
            index.query(query, theta)
            singles.append(time.perf_counter() - start)
        metrics[f"search.{label}.query_us"] = _median_us(singles)
        if label == "prefix":
            candidates, verified, results = (
                after - b for after, b in zip(
                    (index.stats.candidates, index.stats.verified, index.stats.results),
                    before)
            )
            metrics["search.prefix.candidates_per_result"] = candidates / max(1, results)
            metrics["search.prefix.verified_per_result"] = verified / max(1, results)
            batches = []
            for begin in range(0, len(queries) - 31, 32):
                start = time.perf_counter()
                index.query_batch(queries[begin:begin + 32], theta)
                batches.append((time.perf_counter() - start) / 32)
            metrics["search.prefix.query_batch_us_per_query"] = _median_us(batches)
        inserts = []
        for ranking in spares:
            start = time.perf_counter()
            index.insert(ranking)
            inserts.append(time.perf_counter() - start)
        deletes = []
        for ranking in spares:
            start = time.perf_counter()
            index.delete(ranking.rid)
            deletes.append(time.perf_counter() - start)
        metrics[f"search.{label}.insert_us"] = _median_us(inserts)
        metrics[f"search.{label}.delete_us"] = _median_us(deletes)
    return metrics
