"""Asyncio front end over a mutable range-search index.

:class:`SearchService` turns a :class:`~repro.serving.sharded.ShardedIndex`
(or any index with the same surface) into a long-lived service:

* **request batching** — concurrent ``search()`` calls that arrive while
  a flush is pending are coalesced into one ``query_batch`` call per
  ``(theta, include_self)`` group, so N concurrent requests cost one
  kernel invocation instead of N.  Batching never changes answers: the
  batch path is verified query-for-query identical to the serial path.
* **LRU result cache with precise invalidation** — a cached result for
  query ``q`` at threshold ``theta`` stays valid until a mutation can
  change it: an insert invalidates entry ``(q, theta)`` iff the new
  ranking is within ``theta`` of ``q`` (it would have to appear in the
  result); a delete invalidates iff the deleted rid occurs in the cached
  result.  Re-canonicalization never invalidates — it is a physical
  rebuild of an exact index, so answers are unchanged by construction.
* **metrics + tracing** — per-request latencies, QPS, cache hit rate and
  batching factor in :class:`ServiceMetrics`; each flushed batch runs
  under a ``Tracer`` span of kind ``"request_batch"`` when a tracer is
  attached.

A ``revalidate_cache`` debug mode re-executes every cache hit against
the live index and counts mismatches in ``metrics.stale_hits`` — the
concurrency stress test runs with it on and asserts the counter stays
zero under arbitrary interleavings.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field

from ..rankings.bounds import raw_threshold
from ..rankings.distances import footrule
from ..rankings.ranking import Ranking


@dataclass
class ServiceMetrics:
    """Serving-side counters (the index's JoinStats covers the kernels)."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    inserts: int = 0
    deletes: int = 0
    invalidations: int = 0
    recanonicalizations: int = 0
    stale_hits: int = 0
    latencies: list = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def batching_factor(self) -> float:
        """Mean requests per kernel batch (1.0 = no coalescing happened)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        position = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[position]

    def snapshot(self, elapsed_seconds: float | None = None) -> dict:
        report = {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "batching_factor": self.batching_factor,
            "max_batch": self.max_batch,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "invalidations": self.invalidations,
            "recanonicalizations": self.recanonicalizations,
            "stale_hits": self.stale_hits,
            "p50_latency_s": self.latency_quantile(0.50),
            "p95_latency_s": self.latency_quantile(0.95),
        }
        if elapsed_seconds:
            report["qps"] = self.requests / elapsed_seconds
        return report


class SearchService:
    """Asyncio range-search service over a mutable index.

    Parameters
    ----------
    index:
        The data plane — anything with ``query_batch``, ``insert``,
        ``delete``, ``k``, and (for :meth:`recanonicalize`) the
        :class:`~repro.serving.sharded.ShardedIndex` rebuild surface.
    cache_size:
        LRU capacity in cached query results (0 disables caching).
    batch_window:
        Seconds the flusher waits after the first pending request before
        firing, to let concurrent requests pile into the batch.  The
        default 0.0 still coalesces whatever arrives in the same event
        loop tick.
    tracer:
        Optional :class:`~repro.minispark.tracing.Tracer`; each flushed
        batch becomes a span of kind ``"request_batch"``.
    revalidate_cache:
        Debug mode: serve cache hits but re-query the index and count
        mismatches in ``metrics.stale_hits`` (which must stay 0 — the
        invalidation rules are exact, not heuristic).
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = 1024,
        batch_window: float = 0.0,
        tracer=None,
        revalidate_cache: bool = False,
    ):
        self.index = index
        self.cache_size = cache_size
        self.batch_window = batch_window
        self.tracer = tracer
        self.revalidate_cache = revalidate_cache
        self.metrics = ServiceMetrics()
        #: key -> (pairs, result rid frozenset, query ranking); key is
        #: (rid, items, theta, include_self) so distinct payloads under a
        #: recycled rid can never alias.
        self._cache: OrderedDict = OrderedDict()
        self._pending: list = []
        self._flusher: asyncio.Task | None = None
        #: bumped on every insert/delete; a result computed before a
        #: mutation must not enter the cache after it (the invalidation
        #: scan has already run and would never see it).
        self._generation = 0

    # -------------------------------------------------------------- search

    async def search(
        self, query: Ranking, theta: float, include_self: bool = False
    ) -> list:
        """All indexed rankings within ``theta`` of ``query``.

        Returns ``(rid, raw_distance)`` pairs sorted by
        ``(distance, rid)`` — the serving-side result shape (rankings
        themselves stay in the index).
        """
        started = asyncio.get_event_loop().time()
        self.metrics.requests += 1
        key = (query.rid, query.items, theta, include_self)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.metrics.cache_hits += 1
            pairs = cached[0]
            if self.revalidate_cache:
                fresh = await self._enqueue(query, theta, include_self)
                if fresh != pairs:
                    self.metrics.stale_hits += 1
                    pairs = fresh
            self._record_latency(started)
            return list(pairs)
        self.metrics.cache_misses += 1
        generation = self._generation
        pairs = await self._enqueue(query, theta, include_self)
        if self.cache_size > 0 and generation == self._generation:
            self._cache[key] = (
                pairs,
                frozenset(rid for rid, _distance in pairs),
                query,
            )
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        self._record_latency(started)
        return list(pairs)

    def _record_latency(self, started: float) -> None:
        self.metrics.latencies.append(
            asyncio.get_event_loop().time() - started
        )

    async def _enqueue(self, query, theta, include_self) -> list:
        """Queue one query for the next batch flush and await its result."""
        future = asyncio.get_event_loop().create_future()
        self._pending.append((query, theta, include_self, future))
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.ensure_future(self._flush_soon())
        return await future

    async def _flush_soon(self) -> None:
        if self.batch_window > 0:
            await asyncio.sleep(self.batch_window)
        else:
            # Yield once so same-tick concurrent requests can join.
            await asyncio.sleep(0)
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.metrics.batches += 1
        self.metrics.batched_requests += len(pending)
        self.metrics.max_batch = max(self.metrics.max_batch, len(pending))
        groups: dict = {}
        for query, theta, include_self, future in pending:
            groups.setdefault((theta, include_self), []).append(
                (query, future)
            )
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "request_batch", kind="request_batch",
                requests=len(pending), groups=len(groups),
            )
        try:
            for (theta, include_self), members in groups.items():
                queries = [query for query, _future in members]
                try:
                    answers = self.index.query_batch(
                        queries, theta, include_self
                    )
                except Exception as error:  # propagate to every waiter
                    for _query, future in members:
                        if not future.done():
                            future.set_exception(error)
                    continue
                for (_query, future), results in zip(members, answers):
                    if not future.done():
                        future.set_result(
                            [(r.rid, distance) for r, distance in results]
                        )
        finally:
            if span is not None:
                self.tracer.end(span)
        if self._pending:
            # A request slipped in while this flush ran; keep draining.
            self._flusher = asyncio.ensure_future(self._flush_soon())

    # ----------------------------------------------------------- mutations

    async def insert(self, ranking: Ranking) -> None:
        """Index a new ranking and invalidate exactly the affected entries.

        A cached result for ``(q, theta)`` changes iff the new ranking
        belongs in it, i.e. ``footrule(q, new) <= theta_raw`` (with the
        ``include_self``/rid caveat for self-pairs) — so only those
        entries are evicted.
        """
        await self._drain()
        self.index.insert(ranking)
        self._generation += 1
        self.metrics.inserts += 1
        k = self.index.k
        stale = []
        limits: dict = {}  # theta -> raw threshold, once per insert
        for key, (_pairs, _rids, query) in self._cache.items():
            _rid, _items, theta, include_self = key
            if not include_self and ranking.rid == query.rid:
                continue
            limit = limits.get(theta)
            if limit is None:
                limit = limits[theta] = raw_threshold(theta, k)
            if footrule(query, ranking) <= limit:
                stale.append(key)
        for key in stale:
            del self._cache[key]
        self.metrics.invalidations += len(stale)

    async def delete(self, rid) -> Ranking:
        """Drop a ranking; evict exactly the cached results that held it."""
        await self._drain()
        ranking = self.index.delete(rid)
        self._generation += 1
        self.metrics.deletes += 1
        stale = [
            key
            for key, (_pairs, rids, _query) in self._cache.items()
            if rid in rids
        ]
        for key in stale:
            del self._cache[key]
        self.metrics.invalidations += len(stale)
        return ranking

    async def recanonicalize(self) -> dict:
        """Rebuild the index's shards under a fresh frequency snapshot.

        Yields to the event loop between shards so queries interleave
        with the rebuild.  The cache is *not* touched: the index is
        exact under any frozen order, so answers cannot change.
        """
        await self._drain()
        drift_before = self.index.drift()
        for _shard_id in self.index.recanonicalize_steps():
            await asyncio.sleep(0)
        self.metrics.recanonicalizations += 1
        return drift_before

    async def _drain(self) -> None:
        """Flush queued queries so they run against the pre-mutation index.

        Queries queued before a mutation was requested are answered
        against the index state they observed; without the drain a
        pending batch could run mid-mutation and race the invalidation
        scan.
        """
        while self._pending:
            flusher = self._flusher
            if flusher is not None and not flusher.done():
                await asyncio.shield(flusher)
            else:
                await asyncio.sleep(0)

    # ------------------------------------------------------------- reports

    def cache_len(self) -> int:
        return len(self._cache)

    def stats_snapshot(self, elapsed_seconds: float | None = None) -> dict:
        report = self.metrics.snapshot(elapsed_seconds)
        report["indexed"] = len(self.index)
        report["cache_entries"] = len(self._cache)
        return report


async def serve_tcp(service: SearchService, host: str, port: int):
    """Line-protocol TCP front end (the CLI ``serve`` command).

    Protocol (one request per line, JSON):

    * ``{"op": "query", "items": [...], "theta": 0.1}`` →
      ``{"results": [[rid, raw_distance], ...]}``
    * ``{"op": "insert", "rid": 7, "items": [...]}`` → ``{"ok": true}``
    * ``{"op": "delete", "rid": 7}`` → ``{"ok": true}``
    * ``{"op": "stats"}`` → the metrics snapshot

    Returns the listening ``asyncio.Server`` (caller closes it).
    """
    import json

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    op = request.get("op")
                    if op == "query":
                        query = Ranking(
                            request.get("rid", -1),
                            tuple(request["items"]),
                        )
                        results = await service.search(
                            query,
                            float(request["theta"]),
                            bool(request.get("include_self", True)),
                        )
                        reply = {"results": [list(r) for r in results]}
                    elif op == "insert":
                        await service.insert(
                            Ranking(
                                request["rid"], tuple(request["items"])
                            )
                        )
                        reply = {"ok": True}
                    elif op == "delete":
                        await service.delete(request["rid"])
                        reply = {"ok": True}
                    elif op == "stats":
                        reply = service.stats_snapshot()
                    else:
                        reply = {"error": f"unknown op {op!r}"}
                except Exception as error:
                    reply = {"error": str(error)}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)
