"""Jaccard-distance joins — the paper's stated future-work extension.

The conclusion of the paper plans to "extend our approach to sets where
the Jaccard distance is used as a distance measure".  Jaccard distance is
a metric, so the CL framework carries over unchanged conceptually; this
module provides the two ingredients:

* a local prefix-filter join under Jaccard distance for fixed-size item
  sets (the prefix bound comes from
  :func:`repro.rankings.bounds.jaccard_prefix_size`);
* a distributed VJ-style join reusing the grouping machinery.

Rank order is ignored — only the item sets matter — but the inputs stay
:class:`~repro.rankings.ranking.Ranking` objects so datasets are shared
with the Footrule joins.
"""

from __future__ import annotations

from time import perf_counter

from ..minispark.accumulators import local_stats
from ..minispark.context import Context
from ..minispark.tracing import phase_scope
from ..rankings.bounds import jaccard_prefix_size
from ..rankings.dataset import RankingDataset
from ..rankings.distances import jaccard_distance
from ..rankings.ordering import order_ranking
from .grouping import distinct_pairs, grouped_join
from .types import JoinResult, JoinStats, canonical_pair


def _jaccard_within(tau, sigma, theta: float) -> float | None:
    distance = jaccard_distance(tau, sigma)
    return distance if distance <= theta else None


def jaccard_join_local(dataset: RankingDataset, theta: float) -> JoinResult:
    """Single-machine prefix-filter join under Jaccard distance."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"jaccard threshold must be in [0, 1], got {theta}")
    if theta >= 1.0:
        # Disjoint sets have Jaccard distance exactly 1: every pair is a
        # result and no prefix can retrieve the disjoint ones.
        return jaccard_bruteforce(dataset, theta)
    from ..rankings.ordering import order_dataset

    start = perf_counter()
    prefix = jaccard_prefix_size(theta, dataset.k)
    stats = JoinStats()
    ordered = sorted(order_dataset(dataset.rankings), key=lambda o: o.rid)
    pairs = []
    index: dict = {}
    for probe in ordered:
        seen: set = set()
        for item, _rank in probe.prefix(prefix):
            for other in index.get(item, ()):
                if other.rid in seen:
                    continue
                seen.add(other.rid)
                stats.candidates += 1
                stats.verified += 1
                distance = _jaccard_within(probe.ranking, other.ranking, theta)
                if distance is not None:
                    pairs.append(
                        (*canonical_pair(probe.rid, other.rid), distance)
                    )
        for item, _rank in probe.prefix(prefix):
            index.setdefault(item, []).append(probe)
    stats.results = len(pairs)
    return JoinResult(
        pairs=pairs,
        theta=theta,
        k=dataset.k,
        stats=stats,
        phase_seconds={"join": perf_counter() - start},
        algorithm="jaccard-prefix-filter",
    )


def order_rankings_rdd(ctx: Context, rdd):
    """Frequency-order an RDD of rankings (Section 4's first two phases)."""
    frequencies = dict(
        rdd.flat_map(lambda r: ((item, 1) for item in r.items))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    table = ctx.broadcast(frequencies)
    return rdd.map(lambda r: order_ranking(r, table.value))


def jaccard_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    num_partitions: int | None = None,
    partition_threshold: int | None = None,
    seed: int = 0,
) -> JoinResult:
    """Distributed VJ-style join under Jaccard distance."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"jaccard threshold must be in [0, 1], got {theta}")
    if theta >= 1.0:
        return jaccard_bruteforce(dataset, theta)
    num_partitions = num_partitions or ctx.default_parallelism
    prefix = jaccard_prefix_size(theta, dataset.k)
    stats = JoinStats()
    channel = ctx.stats_channel(JoinStats, stats)
    phase_seconds: dict = {}
    pinned: list = []

    # Broadcast scope: the frequency table is released when the join
    # finishes.
    ctx.broadcasts.push_scope()
    try:
        with phase_scope(ctx, "ordering", phase_seconds):
            rdd = ctx.parallelize(dataset.rankings, num_partitions)
            ordered = order_rankings_rdd(ctx, rdd)

        with phase_scope(ctx, "join", phase_seconds):
            tokens = ordered.flat_map(
                lambda o: ((item, o) for item, _rank in o.prefix(prefix))
            )

            def kernel(_item, members):
                stats = local_stats(channel)
                members = sorted(members, key=lambda o: o.rid)
                for a_index, left in enumerate(members):
                    for right in members[a_index + 1 :]:
                        stats.candidates += 1
                        stats.verified += 1
                        distance = _jaccard_within(
                            left.ranking, right.ranking, theta
                        )
                        if distance is not None:
                            stats.results += 1
                            yield canonical_pair(left.rid, right.rid), distance

            def rs_kernel(_item, left_members, right_members):
                stats = local_stats(channel)
                for left in left_members:
                    for right in right_members:
                        if left.rid == right.rid:
                            continue
                        stats.candidates += 1
                        stats.verified += 1
                        distance = _jaccard_within(
                            left.ranking, right.ranking, theta
                        )
                        if distance is not None:
                            stats.results += 1
                            yield canonical_pair(left.rid, right.rid), distance

            pairs = grouped_join(
                ctx,
                tokens,
                num_partitions,
                kernel,
                rs_kernel=rs_kernel,
                partition_threshold=partition_threshold,
                stats=channel,
                seed=seed,
                pinned=pinned,
            )
            results = [
                (i, j, d)
                for (i, j), d in distinct_pairs(pairs, num_partitions).collect()
            ]
    finally:
        for cached in pinned:
            cached.unpersist()
        ctx.broadcasts.pop_scope()
    # The same pair is found under every shared prefix item; kernels count
    # each discovery and deduplication keeps one, so a merged counter
    # below the result count means worker-side counts were lost.
    if stats.results < len(results):
        raise AssertionError(
            f"merged results counter {stats.results} < collected "
            f"{len(results)} pairs — worker-side counts were lost"
        )
    stats.results = len(results)
    return JoinResult(
        pairs=results,
        theta=theta,
        k=dataset.k,
        stats=stats,
        phase_seconds=phase_seconds,
        algorithm="jaccard-vj",
    )


def jaccard_bruteforce(dataset: RankingDataset, theta: float) -> JoinResult:
    """Ground-truth O(n^2) Jaccard join for the extension's tests."""
    start = perf_counter()
    stats = JoinStats()
    rankings = sorted(dataset.rankings, key=lambda r: r.rid)
    pairs = []
    for a_index, tau in enumerate(rankings):
        for sigma in rankings[a_index + 1 :]:
            stats.candidates += 1
            stats.verified += 1
            distance = _jaccard_within(tau, sigma, theta)
            if distance is not None:
                pairs.append((tau.rid, sigma.rid, distance))
    stats.results = len(pairs)
    return JoinResult(
        pairs=pairs,
        theta=theta,
        k=dataset.k,
        stats=stats,
        phase_seconds={"join": perf_counter() - start},
        algorithm="jaccard-bruteforce",
    )
