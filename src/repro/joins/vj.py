"""The Vernica-Join adaptation to top-k rankings (Section 4).

Pipeline (one mini-Spark job chain, mirroring the paper's Spark stages):

1. **Ordering** — count global item frequencies (per-partition counts
   merged on the driver), broadcast the resulting item encoder, and
   re-sort every ranking's items by ascending frequency while keeping the
   original ranks (``OrderedRanking``).
2. **Token emission** — every ranking emits a slim integer-encoded
   ``(code, (rid, key_rank, prefix_codes))`` token for each of its first
   ``p`` canonical items, where ``p`` is the overlap-based prefix for the
   threshold; full rankings are resolved from a broadcast store at
   verification time (see :mod:`repro.joins.compact`).
3. **Grouping + per-group join** — rankings sharing an item meet in one
   group; a kernel joins them:

   * ``variant="index"`` (VJ): an inverted index over the group members'
     prefixes, plus the position filter (prior work [19]);
   * ``variant="nl"`` (VJ-NL, Section 4.1): an iterator-based nested loop
     with the O(1) position check on the group's key item — the variant
     the paper argues is more native to Spark's memory model.

4. **Deduplication** — the same pair can share several prefix items; a
   kernel generates it only under the rarest one, so the paper's "remove
   the duplicate pairs" reduceByKey is not needed.  ``oracle_distinct=True``
   runs that shuffle anyway, which property tests use to assert the
   rarest-item rule really leaves nothing to deduplicate.

``partition_threshold`` activates Section 6's repartitioning of oversized
groups (used standalone here; the CL-P algorithm applies it inside its
joining phase).
"""

from __future__ import annotations

from functools import partial

from ..minispark.context import Context
from ..minispark.tracing import phase_scope
from ..rankings.bounds import admits_disjoint_pairs, raw_threshold
from ..rankings.dataset import RankingDataset
from .compact import compact_ordering, emit_prefix_tokens, make_compact_kernels
from .grouping import distinct_pairs, grouped_join
from .kernels import validate_kernel
from .local import prefix_size_for
from .types import JoinResult, JoinStats


def vj_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    num_partitions: int | None = None,
    variant: str = "index",
    prefix: str = "overlap",
    use_position_filter: bool = True,
    partition_threshold: int | None = None,
    seed: int = 0,
    oracle_distinct: bool = False,
    kernel: str = "vectorized",
) -> JoinResult:
    """Run VJ (``variant="index"``) or VJ-NL (``variant="nl"``).

    ``theta`` is the normalized Footrule threshold.  Returns all pairs with
    distance ``<= theta`` exactly (verified — no false positives).
    ``kernel`` selects the batch (``"vectorized"``, the default) or
    per-pair (``"scalar"``, the oracle) verification implementation;
    results and stats are identical either way.
    """
    if variant not in ("index", "nl"):
        raise ValueError(f"unknown variant {variant!r}")
    validate_kernel(kernel)
    num_partitions = num_partitions or ctx.default_parallelism
    theta_raw = raw_threshold(theta, dataset.k)
    if admits_disjoint_pairs(theta_raw, dataset.k):
        # Degenerate threshold (normalized >= 1): item-disjoint pairs are
        # results and no prefix can retrieve them; every pair matches.
        from .bruteforce import bruteforce_join

        return bruteforce_join(dataset, theta)
    p = prefix_size_for(prefix, theta_raw, dataset.k)
    stats = JoinStats()
    # Worker-side kernels count through the channel so every counter is
    # exact on all executor backends; `stats` is the channel's merged
    # driver-side value.
    channel = ctx.stats_channel(JoinStats, stats)
    phase_seconds: dict = {}
    pinned: list = []

    # Broadcast scope: what this join broadcasts (the columnar store /
    # frequency table) is released when the join finishes.
    ctx.broadcasts.push_scope()
    try:
        with phase_scope(ctx, "ordering", phase_seconds):
            rdd = ctx.parallelize(dataset.rankings, num_partitions)
            ordered, store, _encoder = compact_ordering(ctx, rdd, prefix)
            pinned.append(ordered)

        with phase_scope(ctx, "join", phase_seconds):
            tokens = ordered.flat_map(
                partial(emit_prefix_tokens, prefix_size=p)
            )
            group_kernel, rs_kernel = make_compact_kernels(
                variant, theta_raw, store, channel, use_position_filter,
                kernel,
            )
            pairs = grouped_join(
                ctx,
                tokens,
                num_partitions,
                group_kernel,
                rs_kernel=rs_kernel,
                partition_threshold=partition_threshold,
                stats=channel,
                seed=seed,
                pinned=pinned,
            )
            if oracle_distinct:
                # The rarest-item rule makes this shuffle a no-op; it is
                # kept as a property-test oracle.
                pairs = distinct_pairs(pairs, num_partitions)
            # The grouping shuffle and the verification kernels run inside
            # one action; materializing the shuffle first splits the paper's
            # "group" and "verify" work into separately traced sub-phases
            # (trace-only: ``phase_seconds["join"]`` still covers both, so
            # JoinResult.total_seconds does not double-count).
            with phase_scope(ctx, "group"):
                ctx.scheduler.materialize(pairs, "vj-group")
            with phase_scope(ctx, "verify"):
                results = [(i, j, d) for (i, j), d in pairs.collect()]
    finally:
        for cached in pinned:
            cached.unpersist()
        ctx.broadcasts.pop_scope()

    # The rarest-item rule generates each result pair exactly once, so
    # the merged worker-side counter must equal the collected result
    # count — this is the cross-backend exactness invariant.
    if stats.results != len(results):
        raise AssertionError(
            f"merged results counter {stats.results} != collected "
            f"{len(results)} pairs — accumulator channel is broken"
        )
    name = "vj" if variant == "index" else "vj-nl"
    if partition_threshold is not None:
        name += "+repartition"
    return JoinResult(
        pairs=results,
        theta=theta,
        k=dataset.k,
        stats=stats,
        phase_seconds=phase_seconds,
        algorithm=name,
    )


def vj_nl_join(
    ctx: Context,
    dataset: RankingDataset,
    theta: float,
    num_partitions: int | None = None,
    **kwargs,
) -> JoinResult:
    """Convenience alias for the nested-loop variant (VJ-NL)."""
    return vj_join(
        ctx, dataset, theta, num_partitions, variant="nl", **kwargs
    )
