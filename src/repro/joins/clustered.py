"""The CL algorithm (Section 5) and its CL-P variant (Section 6).

Four phases, each a chain of mini-Spark jobs with intermediate RDDs cached
in memory — the iterative style the paper argues Spark rewards:

1. **Ordering** — one global frequency count + broadcast; rankings are
   re-sorted once and reused by both join phases.
2. **Clustering** — a similarity self-join at the small clustering
   threshold ``theta_c`` (VJ/VJ-NL kernel).  From each result pair the
   smaller id becomes the cluster centroid, the larger a member.  Rankings
   in no pair are *singletons*.  Because Footrule is a metric, members of
   one cluster are at distance ``<= 2 * theta_c`` from each other and are
   emitted as results without verification whenever ``2 * theta_c <=
   theta`` (otherwise they are verified).
3. **Joining** (Lemma 5.1 / 5.3, Algorithm 1) — only centroids are joined.
   Non-singleton centroids use threshold ``theta + 2 * theta_c`` (and the
   matching longer prefix); pairs involving singletons need only
   ``theta + theta_c``, singleton/singleton pairs only ``theta``.  The
   kernel tracks each centroid's type and applies the pair's threshold.
4. **Expansion** (Algorithm 2) — singleton/singleton results are final;
   pairs within ``theta`` are results themselves; every pair with a
   non-singleton side is joined back with the clusters to generate
   member-centroid and member-member candidates, pruned with the triangle
   inequality (``|d(ci,cj) - d(m,ci)| > theta`` is impossible for a
   result) and — optionally — accepted without verification when the
   triangle upper bound already proves the pair
   (``d(ci,cj) + d(m,ci) <= theta``).

``partition_threshold`` (the paper's delta) activates Section 6's
repartitioning of oversized posting lists inside the joining phase, which
is exactly the CL-P configuration; :func:`clp_join` is the named alias.

A note on ``singleton_prefix``: Algorithm 1 as printed indexes singleton
centroids with the prefix for ``theta`` alone.  The classic prefix-filter
argument, however, needs *both* sides of a pair sized for the pair's
threshold, which for centroid/singleton pairs is ``theta + theta_c`` —
with the printed prefix an adversarial canonical order can hide all
common items of such a pair from the singleton's prefix.  The default
``"safe"`` mode therefore sizes singleton prefixes for
``theta + theta_c`` (still far shorter than the non-singleton prefix);
``"paper"`` reproduces the printed algorithm, which is marginally cheaper
and correct on all non-adversarial data we generated.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..minispark.accumulators import local_stats
from ..minispark.context import Context
from ..minispark.tracing import phase_scope
from ..rankings.bounds import (
    admits_disjoint_pairs,
    overlap_prefix_size,
    raw_threshold,
)
from ..rankings.dataset import RankingDataset
from .compact import (
    compact_ordering,
    emit_prefix_tokens,
    make_compact_kernels,
    make_compact_typed_kernels,
)
from .grouping import distinct_pairs, grouped_join
from .kernels import (
    GroupColumns,
    _pair_chunks,
    batch_filter_verify,
    store_batch_verify,
    validate_kernel,
)
from .types import JoinResult, JoinStats, canonical_pair
from .verification import verify


def cl_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    theta_c: float = 0.03,
    num_partitions: int | None = None,
    variant: str = "nl",
    partition_threshold: int | None = None,
    use_position_filter: bool = True,
    singleton_prefix: str = "safe",
    triangle_accept: bool = True,
    seed: int = 0,
    kernel: str = "vectorized",
) -> JoinResult:
    """Run the clustering-based similarity join (CL; CL-P with delta).

    ``theta`` and ``theta_c`` are normalized; ``theta_c <= theta`` is
    required (the paper recommends ``theta_c < 0.05`` and uses 0.03).
    Every shuffled record carries rids and small ints, not ranking
    objects (:mod:`repro.joins.compact`): cluster pairs are ``((i, j),
    d)``, clusters ``(centroid_rid, [(member_rid, d), ...])``, join records
    ``((i, j), (d, singleton_i, singleton_j))``.  Full rankings are
    resolved from the broadcast store only at verification.  The
    rarest-item rule makes the clustering and joining outputs
    duplicate-free, so only the expansion phase ends in a
    ``distinct_pairs`` shuffle (its sub-phases overlap in what they emit).
    ``kernel`` selects batch (``"vectorized"``) or per-pair
    (``"scalar"``) verification; results and stats are identical.
    """
    if not 0.0 <= theta_c <= theta:
        raise ValueError(
            f"need 0 <= theta_c <= theta, got theta_c={theta_c}, theta={theta}"
        )
    if singleton_prefix not in ("safe", "paper"):
        raise ValueError(f"unknown singleton_prefix {singleton_prefix!r}")
    if variant not in ("index", "nl"):
        raise ValueError(f"unknown variant {variant!r}")
    validate_kernel(kernel)

    num_partitions = num_partitions or ctx.default_parallelism
    k = dataset.k
    theta_raw = raw_threshold(theta, k)
    theta_c_raw = raw_threshold(theta_c, k)
    theta_o_raw = theta_raw + 2 * theta_c_raw
    if admits_disjoint_pairs(theta_o_raw, k):
        # The joining phase runs at theta + 2*theta_c; once that admits
        # item-disjoint centroid pairs the prefix framework cannot retrieve
        # them, so fall back to the exhaustive join (degenerate thresholds
        # only — normalized theta + 2*theta_c >= 1).
        from .bruteforce import bruteforce_join

        return bruteforce_join(dataset, theta)
    stats = JoinStats()
    # Worker-side kernels count through the channel so every counter is
    # exact on all executor backends; driver-side summary fields
    # (clusters, singletons, cluster_members) stay on the plain object.
    channel = ctx.stats_channel(JoinStats, stats)
    phase_seconds: dict = {}
    pinned: list = []

    # Broadcast scope: everything broadcast during this join is released
    # when the join finishes.
    ctx.broadcasts.push_scope()
    try:
        # -------------------------------------------------- Phase 1: order
        with phase_scope(ctx, "ordering", phase_seconds):
            rdd = ctx.parallelize(dataset.rankings, num_partitions)
            ordered, store, _encoder = compact_ordering(ctx, rdd)
            pinned.append(ordered)

        # ------------------------------------------------ Phase 2: cluster
        with phase_scope(ctx, "clustering", phase_seconds):
            p_c = overlap_prefix_size(theta_c_raw, k)
            kernel_c, rs_kernel_c = make_compact_kernels(
                variant, theta_c_raw, store, channel, use_position_filter,
                kernel,
            )
            cluster_pairs = grouped_join(
                ctx,
                ordered.flat_map(partial(emit_prefix_tokens, prefix_size=p_c)),
                num_partitions,
                kernel_c,
                rs_kernel_c,
            ).cache()
            pinned.append(cluster_pairs)
            clusters = (
                cluster_pairs.map(lambda kv: (kv[0][0], (kv[0][1], kv[1])))
                .group_by_key(num_partitions)
                .cache()
            )
            pinned.append(clusters)
            # Centroid/singleton roles, derived once on the driver: the pair
            # ids are a subset of the final result set (d <= theta_c <=
            # theta), so this collect is no larger than the join's own
            # output, and it spares object-shuffling subtract/join jobs.
            pair_ids = cluster_pairs.keys().collect()
            centroid_rids: set = set()
            clustered_rids: set = set()
            for rid_i, rid_j in pair_ids:
                centroid_rids.add(rid_i)
                clustered_rids.add(rid_i)
                clustered_rids.add(rid_j)
            roles = {rid: False for rid in centroid_rids}
            for rid in store.value:
                if rid not in clustered_rids:
                    roles[rid] = True
            flags = ctx.broadcast(roles)
            stats.clusters = len(centroid_rids)
            stats.singletons = len(roles) - len(centroid_rids)
            stats.cluster_members = len(pair_ids)
            member_member = clusters.flat_map(
                lambda kv: _same_cluster_pairs_compact(
                    kv[1], store, theta_raw, theta_c_raw, channel, kernel
                )
            )

        # --------------------------------------------------- Phase 3: join
        with phase_scope(ctx, "joining", phase_seconds):
            p_m = overlap_prefix_size(theta_o_raw, k)
            if singleton_prefix == "safe":
                p_s = overlap_prefix_size(theta_raw + theta_c_raw, k)
            else:
                p_s = overlap_prefix_size(theta_raw, k)

            def emit_typed(o):
                is_singleton = flags.value.get(o.rid)
                if is_singleton is None:  # member of a cluster, not a centroid
                    return
                prefix = o.prefix(p_s if is_singleton else p_m)
                codes = tuple(sorted(code for code, _rank in prefix))
                rid = o.rid
                for code, rank in prefix:
                    yield (code, (rid, rank, codes, is_singleton))

            kernel_j, rs_kernel_j = make_compact_typed_kernels(
                variant, theta_raw, theta_c_raw, store, channel,
                use_position_filter, kernel,
            )
            r_join = grouped_join(
                ctx,
                ordered.flat_map(emit_typed),
                num_partitions,
                kernel_j,
                rs_kernel=rs_kernel_j,
                partition_threshold=partition_threshold,
                stats=channel,
                seed=seed,
                pinned=pinned,
            ).cache()
            pinned.append(r_join)
            r_join.count()

        # ----------------------------------------------- Phase 4: expansion
        with phase_scope(ctx, "expansion", phase_seconds):
            r_ss = r_join.filter(lambda kv: kv[1][1] and kv[1][2]).map(
                lambda kv: (kv[0], kv[1][0])
            )
            r_m = r_join.filter(
                lambda kv: not (kv[1][1] and kv[1][2])
            ).cache()
            pinned.append(r_m)
            r_m_direct = r_m.filter(lambda kv: kv[1][0] <= theta_raw).map(
                lambda kv: (kv[0], kv[1][0])
            )

            def direct_sides(kv):
                (rid_i, rid_j), (d, singleton_i, singleton_j) = kv
                if not singleton_i:
                    yield (rid_i, (rid_j, d))
                if not singleton_j:
                    yield (rid_j, (rid_i, d))

            r_m_directed = r_m.flat_map(direct_sides)
            member_centroid = clusters.join(
                r_m_directed, num_partitions
            ).flat_map(
                lambda kv: _expand_member_centroid_compact(
                    kv[1][0], kv[1][1], store, theta_raw, channel,
                    triangle_accept, kernel,
                )
            )

            both_m = r_m.filter(lambda kv: not kv[1][1] and not kv[1][2])
            first_hop = (
                both_m.map(lambda kv: (kv[0][0], (kv[0][1], kv[1][0])))
                .join(clusters, num_partitions)
                .flat_map(
                    lambda kv: (
                        (kv[1][0][0], (member, dist, kv[1][0][1]))
                        for member, dist in kv[1][1]
                    )
                )
            )
            member_member_across = first_hop.join(
                clusters, num_partitions
            ).flat_map(
                lambda kv: _expand_member_member_compact(
                    kv[1][0], kv[1][1], store, theta_raw, channel,
                    triangle_accept, kernel,
                )
            )

            everything = (
                cluster_pairs.union(member_member)
                .union(r_ss)
                .union(r_m_direct)
                .union(member_centroid)
                .union(member_member_across)
            )
            final = distinct_pairs(everything, num_partitions).collect()
    finally:
        for cached in pinned:
            cached.unpersist()
        ctx.broadcasts.pop_scope()

    results = [(i, j, d) for (i, j), d in final]
    _check_results_counter(stats, final)
    stats.results = len(results)
    name = "cl-p" if partition_threshold is not None else "cl"
    return JoinResult(
        pairs=results,
        theta=theta,
        k=k,
        stats=stats,
        phase_seconds=phase_seconds,
        algorithm=name,
    )


def clp_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    partition_threshold: int,
    theta_c: float = 0.03,
    **kwargs,
) -> JoinResult:
    """CL with repartitioning of large posting lists (the paper's CL-P)."""
    return cl_join(
        ctx,
        dataset,
        theta,
        theta_c=theta_c,
        partition_threshold=partition_threshold,
        **kwargs,
    )


def _check_results_counter(stats: JoinStats, final: list) -> None:
    """Cross-backend exactness check on the merged ``results`` counter.

    CL kernels count every concrete (non-``None``-distance) pair they
    produce; phases can rediscover the same pair, so the merged counter
    must be at least the number of concrete pairs that survive
    deduplication.  A smaller counter means worker-side counts were lost
    — exactly the bug the accumulator channel exists to prevent (the old
    code unconditionally overwrote the counter here, masking the loss).
    """
    concrete = sum(1 for _pair, d in final if d is not None)
    if stats.results < concrete:
        raise AssertionError(
            f"merged results counter {stats.results} < {concrete} concrete "
            "result pairs — worker-side counts were lost"
        )


# --------------------------------------------------------------- clustering


def _same_cluster_pairs_compact(
    members, store, theta_raw, theta_c_raw, stats, kernel="vectorized"
):
    """Compact member-member pairs of one cluster (rids only, store verify)."""
    members = sorted(members)
    if 2 * theta_c_raw <= theta_raw:
        # Certain by the triangle inequality — nothing to verify, so
        # there is nothing to vectorize either.
        stats = local_stats(stats)
        for a_index, (first, _d1) in enumerate(members):
            for second, _d2 in members[a_index + 1 :]:
                stats.triangle_accepted += 1
                yield (canonical_pair(first, second), None)
        return
    columnar = store.value
    if kernel == "vectorized" and len(members) > 1:
        rows = np.fromiter(
            (columnar.row_of[rid] for rid, _d in members),
            dtype=np.int64,
            count=len(members),
        )
        cols = GroupColumns.from_store(columnar, rows)
        if cols is not None:
            stats = local_stats(stats)
            rids = [rid for rid, _d in members]
            for ii, jj in _pair_chunks(len(members)):
                totals, _filtered, results = batch_filter_verify(
                    cols, ii, jj, theta_raw, use_position_filter=False
                )
                stats.candidates += int(ii.size)
                stats.verified += int(ii.size)
                stats.results += int(results.sum())
                for pos in np.flatnonzero(results):
                    # Members are rid-sorted, so (ii, jj) is canonical.
                    yield (
                        (rids[int(ii[pos])], rids[int(jj[pos])]),
                        int(totals[pos]),
                    )
            return
    stats = local_stats(stats)
    for a_index, (first, _d1) in enumerate(members):
        for second, _d2 in members[a_index + 1 :]:
            stats.candidates += 1
            stats.verified += 1
            distance = verify(
                columnar[first].ranking, columnar[second].ranking, theta_raw
            )
            if distance is not None:
                stats.results += 1
                yield (canonical_pair(first, second), distance)


# ---------------------------------------------------------------- expansion


#: Members per expansion batch: the compact CL/CL-P expansions stream
#: each group through the kernels in bounded chunks instead of
#: materializing the whole member list — VJ-NL's iterator discipline
#: extended to the expansion side, so a giant cluster's memory footprint
#: is one chunk, not one group.  Chunking only partitions the per-member
#: iteration (every filter, counter, and verification is per member and
#: order-preserving), so results and stats are unchanged.
EXPANSION_CHUNK = 2048


def _member_chunks(members, size=EXPANSION_CHUNK):
    """Split a (possibly lazy) member iterable into bounded lists."""
    chunk = []
    for member in members:
        chunk.append(member)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _expand_member_centroid_compact(
    members, other_with_distance, store, theta_raw, stats, triangle_accept,
    kernel="vectorized",
):
    """Compact R_{m,c}: members (rids) of one cluster vs. the other side."""
    other, centroid_distance = other_with_distance
    if kernel != "vectorized":
        yield from _expand_member_centroid_scalar(
            members, other, centroid_distance, store, theta_raw, stats,
            triangle_accept,
        )
        return
    for chunk in _member_chunks(members):
        rids = np.fromiter(
            (member for member, _d in chunk),
            dtype=np.int64,
            count=len(chunk),
        )
        dists = np.fromiter(
            (d for _member, d in chunk),
            dtype=np.float64,
            count=len(chunk),
        )
        keep = rids != other
        filtered = keep & (np.abs(centroid_distance - dists) > theta_raw)
        live = keep & ~filtered
        if triangle_accept:
            accepted = live & (centroid_distance + dists <= theta_raw)
        else:
            accepted = np.zeros(len(chunk), dtype=bool)
        to_verify = live & ~accepted
        verify_rids = rids[to_verify]
        if verify_rids.size:
            batch = store_batch_verify(
                store.value,
                verify_rids,
                np.full(verify_rids.size, other, dtype=np.int64),
                theta_raw,
            )
        else:
            batch = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        # batch is None ⟺ the localized rank matrix would blow the memory
        # cap — fall through to the scalar path before any counter moves.
        if batch is None:
            yield from _expand_member_centroid_scalar(
                chunk, other, centroid_distance, store, theta_raw, stats,
                triangle_accept,
            )
            continue
        totals, results = batch
        local = local_stats(stats)
        local.candidates += int(keep.sum())
        local.triangle_filtered += int(filtered.sum())
        local.triangle_accepted += int(accepted.sum())
        local.verified += int(to_verify.sum())
        local.results += int(results.sum())
        cursor = 0
        for index in range(len(chunk)):
            if accepted[index]:
                yield (canonical_pair(int(rids[index]), other), None)
            elif to_verify[index]:
                if results[cursor]:
                    yield (
                        canonical_pair(int(rids[index]), other),
                        int(totals[cursor]),
                    )
                cursor += 1


def _expand_member_centroid_scalar(
    members, other, centroid_distance, store, theta_raw, stats,
    triangle_accept,
):
    """Per-member oracle path of :func:`_expand_member_centroid_compact`."""
    stats = local_stats(stats)
    lookup = store.value
    for member, member_distance in members:
        if member == other:
            continue
        stats.candidates += 1
        if abs(centroid_distance - member_distance) > theta_raw:
            stats.triangle_filtered += 1
            continue
        pair = canonical_pair(member, other)
        if triangle_accept and centroid_distance + member_distance <= theta_raw:
            stats.triangle_accepted += 1
            yield (pair, None)
            continue
        stats.verified += 1
        distance = verify(
            lookup[member].ranking, lookup[other].ranking, theta_raw
        )
        if distance is not None:
            stats.results += 1
            yield (pair, distance)


def _expand_member_member_compact(
    hop, members, store, theta_raw, stats, triangle_accept,
    kernel="vectorized",
):
    """Compact R_{m,m}: first-cluster member (rid) vs. second's members."""
    member_i, distance_i, centroid_distance = hop
    if kernel != "vectorized":
        yield from _expand_member_member_scalar(
            member_i, distance_i, centroid_distance, members, store,
            theta_raw, stats, triangle_accept,
        )
        return
    for chunk in _member_chunks(members):
        rids = np.fromiter(
            (member for member, _d in chunk),
            dtype=np.int64,
            count=len(chunk),
        )
        dists = np.fromiter(
            (d for _member, d in chunk),
            dtype=np.float64,
            count=len(chunk),
        )
        keep = rids != member_i
        filtered = keep & (
            centroid_distance - distance_i - dists > theta_raw
        )
        live = keep & ~filtered
        if triangle_accept:
            accepted = live & (
                centroid_distance + distance_i + dists <= theta_raw
            )
        else:
            accepted = np.zeros(len(chunk), dtype=bool)
        to_verify = live & ~accepted
        verify_rids = rids[to_verify]
        if verify_rids.size:
            batch = store_batch_verify(
                store.value,
                np.full(verify_rids.size, member_i, dtype=np.int64),
                verify_rids,
                theta_raw,
            )
        else:
            batch = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        if batch is None:
            yield from _expand_member_member_scalar(
                member_i, distance_i, centroid_distance, chunk, store,
                theta_raw, stats, triangle_accept,
            )
            continue
        totals, results = batch
        local = local_stats(stats)
        local.candidates += int(keep.sum())
        local.triangle_filtered += int(filtered.sum())
        local.triangle_accepted += int(accepted.sum())
        local.verified += int(to_verify.sum())
        local.results += int(results.sum())
        cursor = 0
        for index in range(len(chunk)):
            if accepted[index]:
                yield (
                    canonical_pair(member_i, int(rids[index])), None
                )
            elif to_verify[index]:
                if results[cursor]:
                    yield (
                        canonical_pair(member_i, int(rids[index])),
                        int(totals[cursor]),
                    )
                cursor += 1


def _expand_member_member_scalar(
    member_i, distance_i, centroid_distance, members, store, theta_raw,
    stats, triangle_accept,
):
    """Per-member oracle path of :func:`_expand_member_member_compact`."""
    stats = local_stats(stats)
    lookup = store.value
    for member_j, distance_j in members:
        if member_i == member_j:
            continue
        stats.candidates += 1
        if centroid_distance - distance_i - distance_j > theta_raw:
            stats.triangle_filtered += 1
            continue
        pair = canonical_pair(member_i, member_j)
        if (
            triangle_accept
            and centroid_distance + distance_i + distance_j <= theta_raw
        ):
            stats.triangle_accepted += 1
            yield (pair, None)
            continue
        stats.verified += 1
        distance = verify(
            lookup[member_i].ranking, lookup[member_j].ranking, theta_raw
        )
        if distance is not None:
            stats.results += 1
            yield (pair, distance)
