"""Random-centroid metric-space partition join (the Section 5.1 baseline).

Section 5.1 explains why CL does *not* form clusters the way prior
metric-space MapReduce joins do (Wang et al. [27], Sarma et al. [22]):
pick N random centroids, assign every point to its nearest centroid, and
join within partitions plus the "outer" border regions.  The paper argues
two drawbacks for the near-duplicate use case: random centroids mostly
end up in singleton regions (no pruning benefit), and N must be fixed up
front.

This module implements that baseline faithfully so the claim is testable:

* N centroids are sampled uniformly at random (seeded);
* every ranking joins the partition of its nearest centroid;
* a ranking is *replicated* to every other partition whose centroid is
  within ``d(nearest) + theta`` (the metric window condition) — this is
  what makes the join exact: two rankings within ``theta`` of each other
  always share at least the partition of the centroid nearer to either
  (proved by the triangle inequality, tested against brute force);
* each partition is joined with a nested loop over (home, home) and
  (home, replicated) pairs, with verification.

It plugs into the same result type as everything else, and the ablation
benchmark compares it with CL's join-based clustering.
"""

from __future__ import annotations

import random

from ..minispark.accumulators import local_stats
from ..minispark.context import Context
from ..minispark.tracing import phase_scope
from ..rankings.bounds import raw_threshold
from ..rankings.dataset import RankingDataset
from ..rankings.distances import footrule
from .types import JoinResult, JoinStats, canonical_pair
from .verification import verify


def metric_partition_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    num_centroids: int | None = None,
    num_partitions: int | None = None,
    seed: int = 0,
) -> JoinResult:
    """Exact all-pairs join via random-centroid metric partitioning.

    ``num_centroids`` defaults to the partition count, mirroring how the
    prior work sizes regions to the cluster.
    """
    num_partitions = num_partitions or ctx.default_parallelism
    if num_centroids is None:
        num_centroids = num_partitions
    if num_centroids <= 0:
        raise ValueError(f"num_centroids must be positive, got {num_centroids}")
    num_centroids = min(num_centroids, len(dataset))
    theta_raw = raw_threshold(theta, dataset.k)
    stats = JoinStats()
    channel = ctx.stats_channel(JoinStats, stats)
    phase_seconds: dict = {}

    # Broadcast scope: the centroid table is released when the join
    # finishes.
    ctx.broadcasts.push_scope()
    try:
        return _metric_partition_join(
            ctx, dataset, theta, num_centroids, num_partitions, seed,
            theta_raw, stats, channel, phase_seconds,
        )
    finally:
        ctx.broadcasts.pop_scope()


def _metric_partition_join(
    ctx, dataset, theta, num_centroids, num_partitions, seed,
    theta_raw, stats, channel, phase_seconds,
):
    # ---- Partitioning stage: pick centroids, route every ranking.
    with phase_scope(ctx, "partitioning", phase_seconds):
        rng = random.Random(seed)
        centroids = rng.sample(dataset.rankings, num_centroids)
        table = ctx.broadcast(
            [(index, c) for index, c in enumerate(centroids)]
        )

        def route(ranking):
            """Home partition + replicas within the theta window.

            For every centroid c with d(r, c) <= d(r, home) + theta the
            ranking is shipped to c's partition as a border copy.  Any
            result pair (r, s) then co-locates at the centroid nearest to
            r or to s: d(s, c_r) <= d(s, r) + d(r, c_r) <= theta +
            d(r, c_r).
            """
            distances = [
                (index, footrule(ranking, centroid))
                for index, centroid in table.value
            ]
            home_index, home_distance = min(
                distances, key=lambda id_d: id_d[1]
            )
            yield (home_index, (ranking, True))
            for index, distance in distances:
                if (
                    index != home_index
                    and distance <= home_distance + theta_raw
                ):
                    yield (index, (ranking, False))

        routed = ctx.parallelize(
            dataset.rankings, num_partitions
        ).flat_map(route)
        regions = routed.group_by_key(num_partitions).cache()
        replicas = regions.map(lambda kv: len(kv[1])).sum()

    # ---- Join stage: nested loop per region, home pairs + border pairs.
    try:
        with phase_scope(ctx, "join", phase_seconds):

            def join_region(kv):
                stats = local_stats(channel)
                _index, members = kv
                members = sorted(members, key=lambda member: member[0].rid)
                for a_index, (left, left_home) in enumerate(members):
                    for right, right_home in members[a_index + 1 :]:
                        # Avoid pure border-border duplicates: at least one
                        # side must be at home here, or the pair is found
                        # elsewhere.
                        if not (left_home or right_home):
                            continue
                        stats.candidates += 1
                        stats.verified += 1
                        distance = verify(left, right, theta_raw)
                        if distance is not None:
                            stats.results += 1
                            yield (
                                canonical_pair(left.rid, right.rid), distance
                            )

            pairs = regions.flat_map(join_region)
            unique = pairs.reduce_by_key(lambda a, _b: a, num_partitions)
            results = [(i, j, d) for (i, j), d in unique.collect()]
    finally:
        regions.unpersist()

    # A pair can be joined in both endpoints' home regions; the kernels
    # count each discovery, deduplication keeps one.
    if stats.results < len(results):
        raise AssertionError(
            f"merged results counter {stats.results} < collected "
            f"{len(results)} pairs — worker-side counts were lost"
        )
    stats.results = len(results)
    stats.cluster_members = replicas
    stats.clusters = num_centroids
    return JoinResult(
        pairs=results,
        theta=theta,
        k=dataset.k,
        stats=stats,
        phase_seconds=phase_seconds,
        algorithm="metric-partition",
    )
