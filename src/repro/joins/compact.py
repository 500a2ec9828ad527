"""The token pipeline shared by VJ, VJ-NL, CL, and CL-P.

Three design decisions, all aimed at what crosses the (simulated) wire
rather than at kernel speed:

1. **Integer encoding** — the ordering phase builds an
   :class:`~repro.rankings.encoding.ItemEncoder` from the global frequency
   table and maps every ranking onto dense int codes assigned in canonical
   frequency order (see :mod:`repro.rankings.encoding`).  The frequency
   table itself is counted shuffle-free: per-partition Counters merged on
   the driver.

2. **Slim tokens + a broadcast columnar store** — a token is
   ``(rid, key_rank, prefix_codes)``: the ranking id, the original rank of
   the group's key item (the O(1) position check of Section 4.1), and the
   sorted tuple of the emitted prefix codes.  Full rankings live in a
   driver-built, broadcast :class:`~repro.rankings.encoding.ColumnarStore`
   — one contiguous ``(n, k)`` int32 code matrix plus a rid index — that
   kernels consult only when a candidate actually reaches verification
   (vectorized kernels gather rows as arrays; the scalar oracle
   materializes ranking objects lazily per rid).  A token's payload is
   O(p) small ints, not the O(k)-object ranking, and the broadcast itself
   is two array buffers instead of n Python objects.

3. **Rarest-common-prefix-item deduplication** — a candidate pair whose
   prefixes share ``m`` items meets in ``m`` groups.  A kernel generates
   the pair only in the group of the pair's *rarest* shared
   emitted-prefix item (the minimum shared code — an O(p) merge-walk over
   the two sorted prefix tuples).  Every qualifying pair is produced
   under exactly one item, so no trailing ``distinct_pairs`` shuffle is
   needed to drop duplicates.

   *Correctness*: the overlap-prefix lemma guarantees a result pair shares
   at least one item across its emitted prefixes, so the intersection is
   non-empty and its minimum ``c`` well defined.  Both rankings emit a
   token for every own prefix item, hence both appear in group ``c`` and
   the pair is generated there; in any other shared group ``c' > c`` the
   merge-walk finds ``c`` first and skips the pair.  The argument only
   uses the *emitted* prefix tuples carried in the tokens, so it holds
   for mixed prefix lengths (CL's singleton vs. non-singleton centroids)
   and for the repartitioning of oversized groups (Section 6), where the
   ``subkey_left < subkey_right`` guard already keeps a pair from meeting
   twice within one item's sub-partitions.
"""

from __future__ import annotations

from collections import Counter

from ..minispark.accumulators import local_stats
from ..minispark.context import Broadcast, Context
from ..rankings.bounds import position_filter_bound
from ..rankings.encoding import (
    ColumnarStore,
    ItemEncoder,
    encode_ordered,
    encode_rank_ordered,
)
from ..rankings.ordering import OrderedRanking
from .kernels import (
    compact_group_batch,
    compact_rs_batch,
    compact_typed_group_batch,
    compact_typed_rs_batch,
    validate_kernel,
)
from .types import JoinStats, canonical_pair
from .verification import check_pair, verify, violates_position_filter


def _count_items(rows) -> list:
    """Per-partition item counts, combined locally into one Counter."""
    counts: Counter = Counter()
    for ranking in rows:
        counts.update(ranking.items)
    return [counts]


def compact_ordering(ctx: Context, rdd, prefix: str = "overlap"):
    """Ordering phase of every join.

    Counts global item frequencies (shuffle-free: per-partition combine
    plus a driver merge), builds the :class:`ItemEncoder`, maps
    every ranking to its encoded ordered form, and collects the broadcast
    ranking store.  Returns ``(ordered_rdd, store_broadcast, encoder)``;
    the ordered RDD is cached because both the store build and token
    emission (and, in CL, several later phases) consume it.
    """
    # Global frequency count without a shuffle: each partition combines
    # locally into one Counter and the driver merges the partials (the
    # ``countByValue`` idiom).  The driver builds the encoder and the
    # broadcast store anyway, so the driver merge is free.
    frequencies: Counter = Counter()
    for partial in rdd.map_partitions(_count_items).collect():
        frequencies.update(partial)
    encoder = ItemEncoder(frequencies)
    table = ctx.broadcast(encoder)
    if prefix == "ordered":
        ordered = rdd.map(lambda r: encode_rank_ordered(r, table.value))
    else:
        ordered = rdd.map(lambda r: encode_ordered(r, table.value))
    ordered = ordered.cache()
    # The store is columnar: one contiguous (n, k) code matrix plus a
    # rid index, built straight from the collected encoded rankings.
    # Nothing is materialized per ranking here — the vectorized kernels
    # gather from the arrays, and the scalar oracle path materializes
    # (and caches) ranking objects lazily per verified rid, so small-θ
    # runs pay no O(n·k) driver-side rank-table build.
    store = ColumnarStore.from_ordered(ordered.collect(), len(encoder))
    return ordered, ctx.broadcast(store), encoder


def emit_prefix_tokens(ordered: OrderedRanking, prefix_size: int):
    """Slim prefix tokens of one ranking: ``(code, (rid, key_rank, codes))``.

    ``codes`` is the sorted tuple of the emitted prefix codes — already
    sorted under the ``"overlap"`` scheme (canonical order ascends with
    the code), sorted here once for the ``"ordered"`` scheme.
    """
    prefix = ordered.prefix(prefix_size)
    codes = tuple(sorted(code for code, _rank in prefix))
    rid = ordered.rid
    return ((code, (rid, rank, codes)) for code, rank in prefix)


def first_common(a: tuple, b: tuple) -> int | None:
    """Minimum shared element of two ascending int tuples (merge-walk)."""
    i = j = 0
    len_a = len(a)
    len_b = len(b)
    while i < len_a and j < len_b:
        x = a[i]
        y = b[j]
        if x == y:
            return x
        if x < y:
            i += 1
        else:
            j += 1
    return None


def pair_threshold(
    singleton_a: bool, singleton_b: bool, theta_raw: float, theta_c_raw: float
) -> float:
    """Lemma 5.3: the retrieval threshold for a centroid pair by type."""
    if singleton_a and singleton_b:
        return theta_raw
    if singleton_a or singleton_b:
        return theta_raw + theta_c_raw
    return theta_raw + 2 * theta_c_raw


# ------------------------------------------------- plain threshold kernels


def compact_group_indexed(
    key_item: int,
    members: list,
    store: dict,
    theta_raw: float,
    stats: JoinStats,
    use_position_filter: bool = True,
):
    """Compact VJ kernel: inverted index over the members' prefix codes.

    ``members`` are ``(rid, key_rank, codes)`` tokens of one group; the
    full rankings are fetched from ``store`` only for pairs that survive
    the rarest-item ownership check.
    """
    stats = local_stats(stats)
    members = sorted(members)
    bound = position_filter_bound(theta_raw) if use_position_filter else None
    index: dict = {}
    for token in members:
        rid_probe, _rank, codes_probe = token
        probe = None
        seen: set = set()
        for code in codes_probe:
            bucket = index.get(code)
            if not bucket:
                continue
            for rid_other, _other_rank, codes_other in bucket:
                if rid_other in seen:
                    continue
                seen.add(rid_other)
                if first_common(codes_probe, codes_other) != key_item:
                    stats.dedup_skipped += 1
                    continue
                if probe is None:
                    probe = store[rid_probe].ranking
                distance = check_pair(
                    probe,
                    store[rid_other].ranking,
                    theta_raw,
                    stats,
                    use_position_filter,
                    bound,
                )
                if distance is not None:
                    yield canonical_pair(rid_probe, rid_other), distance
        for code in codes_probe:
            index.setdefault(code, []).append(token)


def compact_group_nested_loop(
    members: list,
    key_item: int,
    store: dict,
    theta_raw: float,
    stats: JoinStats,
    use_position_filter: bool = True,
):
    """Compact VJ-NL kernel: nested loop with the carried key-item ranks."""
    stats = local_stats(stats)
    members = sorted(members)
    bound = position_filter_bound(theta_raw)
    for a_index, (rid_a, rank_a, codes_a) in enumerate(members):
        left = None
        for rid_b, rank_b, codes_b in members[a_index + 1 :]:
            if first_common(codes_a, codes_b) != key_item:
                stats.dedup_skipped += 1
                continue
            stats.candidates += 1
            if use_position_filter and abs(rank_a - rank_b) > bound:
                stats.position_filtered += 1
                continue
            stats.verified += 1
            if left is None:
                left = store[rid_a].ranking
            distance = verify(left, store[rid_b].ranking, theta_raw)
            if distance is not None:
                stats.results += 1
                yield canonical_pair(rid_a, rid_b), distance


def compact_groups_rs(
    left_members: list,
    right_members: list,
    key_item: int,
    store: dict,
    theta_raw: float,
    stats: JoinStats,
    use_position_filter: bool = True,
):
    """Compact R-S kernel between two sub-partitions of a split group."""
    stats = local_stats(stats)
    bound = position_filter_bound(theta_raw)
    for rid_a, rank_a, codes_a in left_members:
        left = None
        for rid_b, rank_b, codes_b in right_members:
            if rid_a == rid_b:
                continue
            if first_common(codes_a, codes_b) != key_item:
                stats.dedup_skipped += 1
                continue
            stats.candidates += 1
            if use_position_filter and abs(rank_a - rank_b) > bound:
                stats.position_filtered += 1
                continue
            stats.verified += 1
            if left is None:
                left = store[rid_a].ranking
            distance = verify(left, store[rid_b].ranking, theta_raw)
            if distance is not None:
                stats.results += 1
                yield canonical_pair(rid_a, rid_b), distance


def make_compact_kernels(
    variant: str,
    theta_raw: float,
    store: Broadcast,
    stats: JoinStats,
    use_position_filter: bool,
    kernel: str = "vectorized",
):
    """Group and R-S kernels for a plain threshold.

    ``kernel="vectorized"`` (the default) runs the batch kernels of
    :mod:`repro.joins.kernels` over the columnar store, falling back to
    the scalar kernel for any group whose rank matrix would be too
    large; ``"scalar"`` is the per-pair oracle path.  Both produce the
    same pairs, distances, and ``JoinStats`` counters.
    """
    validate_kernel(kernel)
    if variant == "index":

        def scalar_kernel(item, members):
            return compact_group_indexed(
                item, list(members), store.value, theta_raw, stats,
                use_position_filter,
            )

    else:

        def scalar_kernel(item, members):
            return compact_group_nested_loop(
                list(members), item, store.value, theta_raw, stats,
                use_position_filter,
            )

    def scalar_rs_kernel(item, left, right):
        return compact_groups_rs(
            list(left), list(right), item, store.value, theta_raw, stats,
            use_position_filter,
        )

    if kernel == "scalar":
        return scalar_kernel, scalar_rs_kernel

    def batch_kernel(item, members):
        return compact_group_batch(
            item, members, store.value, theta_raw, stats,
            use_position_filter, variant,
            fallback=lambda sorted_members: scalar_kernel(
                item, sorted_members
            ),
        )

    def batch_rs_kernel(item, left, right):
        return compact_rs_batch(
            left, right, item, store.value, theta_raw, stats,
            use_position_filter,
            fallback=lambda l, r: scalar_rs_kernel(item, l, r),
        )

    return batch_kernel, batch_rs_kernel


# ------------------------------------------------------ CL typed kernels


def _compact_typed_value(rid_a, singleton_a, rid_b, singleton_b, distance):
    """Normalized compact join record: ids ascending, flags aligned."""
    if rid_a < rid_b:
        return (rid_a, rid_b), (distance, singleton_a, singleton_b)
    return (rid_b, rid_a), (distance, singleton_b, singleton_a)


def typed_threshold_table(theta_raw: float, theta_c_raw: float) -> dict:
    """Precomputed Lemma 5.3 ``(threshold, position bound)`` per type pair.

    Keyed by ``(singleton_a, singleton_b)`` — hoisting the two per-pair
    function calls of the typed kernels into one dict lookup.
    """
    return {
        (sa, sb): (
            pair_threshold(sa, sb, theta_raw, theta_c_raw),
            position_filter_bound(
                pair_threshold(sa, sb, theta_raw, theta_c_raw)
            ),
        )
        for sa in (True, False)
        for sb in (True, False)
    }


def make_compact_typed_kernels(
    variant: str,
    theta_raw: float,
    theta_c_raw: float,
    store: Broadcast,
    channel,
    use_position_filter: bool,
    kernel: str = "vectorized",
):
    """Algorithm 1's type-aware kernels over slim typed tokens.

    Tokens are ``(rid, key_rank, codes, is_singleton)``; output records
    are ``((rid_i, rid_j), (distance, singleton_i, singleton_j))`` with
    ascending ids — the ranking objects are resolved from the store
    during expansion.  ``channel`` is a plain
    :class:`JoinStats` or an accumulator channel; each kernel resolves
    its task-local delta once per group.  ``kernel`` selects the batch
    (``"vectorized"``) or per-pair (``"scalar"``) implementation; both
    agree on outcomes and counters.
    """
    validate_kernel(kernel)
    thresholds = typed_threshold_table(theta_raw, theta_c_raw)

    def nested_loop(item, members):
        # Generator: resolved at first next(), inside the task's scope.
        stats = local_stats(channel)
        members = sorted(members)
        lookup = store.value
        for a_index, (rid_a, rank_a, codes_a, singleton_a) in enumerate(
            members
        ):
            for rid_b, rank_b, codes_b, singleton_b in members[a_index + 1 :]:
                if first_common(codes_a, codes_b) != item:
                    stats.dedup_skipped += 1
                    continue
                threshold, bound = thresholds[singleton_a, singleton_b]
                stats.candidates += 1
                if use_position_filter and abs(rank_a - rank_b) > bound:
                    stats.position_filtered += 1
                    continue
                stats.verified += 1
                distance = verify(
                    lookup[rid_a].ranking, lookup[rid_b].ranking, threshold
                )
                if distance is not None:
                    stats.results += 1
                    yield _compact_typed_value(
                        rid_a, singleton_a, rid_b, singleton_b, distance
                    )

    def indexed(item, members):
        stats = local_stats(channel)
        members = sorted(members)
        lookup = store.value
        index: dict = {}
        for token in members:
            rid_probe, _rank, codes_probe, singleton_probe = token
            seen: set = set()
            for code in codes_probe:
                bucket = index.get(code)
                if not bucket:
                    continue
                for rid_other, _orank, codes_other, singleton_other in bucket:
                    if rid_other in seen:
                        continue
                    seen.add(rid_other)
                    if first_common(codes_probe, codes_other) != item:
                        stats.dedup_skipped += 1
                        continue
                    threshold, _bound = thresholds[
                        singleton_probe, singleton_other
                    ]
                    stats.candidates += 1
                    if use_position_filter and violates_position_filter(
                        lookup[rid_probe].ranking,
                        lookup[rid_other].ranking,
                        threshold,
                    ):
                        stats.position_filtered += 1
                        continue
                    stats.verified += 1
                    distance = verify(
                        lookup[rid_probe].ranking,
                        lookup[rid_other].ranking,
                        threshold,
                    )
                    if distance is not None:
                        stats.results += 1
                        yield _compact_typed_value(
                            rid_probe, singleton_probe, rid_other,
                            singleton_other, distance,
                        )
            for code in codes_probe:
                index.setdefault(code, []).append(token)

    def rs(item, left_members, right_members):
        stats = local_stats(channel)
        lookup = store.value
        for rid_a, rank_a, codes_a, singleton_a in left_members:
            for rid_b, rank_b, codes_b, singleton_b in right_members:
                if rid_a == rid_b:
                    continue
                if first_common(codes_a, codes_b) != item:
                    stats.dedup_skipped += 1
                    continue
                threshold, bound = thresholds[singleton_a, singleton_b]
                stats.candidates += 1
                if use_position_filter and abs(rank_a - rank_b) > bound:
                    stats.position_filtered += 1
                    continue
                stats.verified += 1
                distance = verify(
                    lookup[rid_a].ranking, lookup[rid_b].ranking, threshold
                )
                if distance is not None:
                    stats.results += 1
                    yield _compact_typed_value(
                        rid_a, singleton_a, rid_b, singleton_b, distance
                    )

    scalar_kernel = nested_loop if variant == "nl" else indexed
    if kernel == "scalar":
        return scalar_kernel, rs

    def emit(token_a, token_b, distance):
        return _compact_typed_value(
            token_a[0], token_a[3], token_b[0], token_b[3], distance
        )

    def batch_kernel(item, members):
        return compact_typed_group_batch(
            item, members, store.value, theta_raw, theta_c_raw, channel,
            use_position_filter, variant,
            fallback=lambda sorted_members: scalar_kernel(
                item, sorted_members
            ),
            emit=emit,
        )

    def batch_rs_kernel(item, left, right):
        return compact_typed_rs_batch(
            item, left, right, store.value, theta_raw, theta_c_raw,
            channel, use_position_filter,
            fallback=lambda l, r: rs(item, l, r),
            emit=emit,
        )

    return batch_kernel, batch_rs_kernel
