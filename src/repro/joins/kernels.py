"""Vectorized batch verification kernels over columnar partitions.

The scalar hot path verifies one candidate pair at a time: a Python loop
over ``Ranking.ranks`` dict lookups per pair (:mod:`.verification`).
This module re-states verification as numpy array programs over a
*columnar* view of a candidate group, so a whole group's candidate set is
filtered and verified in a handful of vectorized passes.

Two observations make batching possible without changing any outcome:

1.  **Every group kernel's candidate set is all member pairs.**  Every
    member of an item group carries the group's key item in its emitted
    prefix (that is why it is in the group), so any two members share at
    least the key item and every pair is discovered by the scalar
    index/nested-loop walks.  The kernels differ only in *filter mode*
    (full position filter vs. the O(1) key-rank check); the rarest-item
    ownership rule reduces to "the two members share no emitted prefix
    code smaller than the key" and is evaluated here as a bitset
    intersection (:func:`earlier_code_masks`).

2.  **The Footrule sum has a closed columnar form.**  With equal-length
    rankings, each side's ranks sum to ``T = k(k+1)/2``, so gathering
    ``tr[pair, pos] = rank in a of b's item at pos`` (``k`` when absent)
    gives::

        d(a, b) =   sum_pos  shared ? |tr - pos| : (k - pos)     # b side
                  + T - sum_pos shared ? (k - tr) : 0            # a-private

    one ``(pairs, k)`` gather plus masked row sums.  The scalar kernel's
    early exit only ever skips work, never changes a decision, so the
    batch kernel's distances, filter decisions, and counter tallies are
    byte-identical to the scalar path (pinned by
    ``tests/test_vectorized_kernels.py``).

The early-exit economics survive vectorization through *blocked* partial
sums: when the position filter is off (nested-loop kernels) the ``k``
columns are processed in blocks, rows whose running partial sum already
exceeds the threshold are compacted away, and only surviving rows pay
for later blocks.  With the full position filter on, every column must
be inspected anyway (the filter is a full pass in the scalar oracle
too), so the single-pass form is used.

Groups whose local rank matrix would exceed :data:`MAX_RANK_MATRIX_CELLS`
fall back to the scalar kernel for that group only — same results, same
counters, bounded memory.
"""

from __future__ import annotations

import numpy as np

from ..minispark.accumulators import local_stats
from ..rankings.bounds import position_filter_bound
from .types import canonical_pair

KERNELS = ("vectorized", "scalar")

#: Cap on ``group_members * distinct_group_codes`` cells of the per-group
#: rank matrix (int16): 2 ** 26 cells = 128 MiB.  Larger groups run the
#: scalar kernel instead.
MAX_RANK_MATRIX_CELLS = 1 << 26

#: Column block width for the blocked early-exit sum (nested-loop mode).
#: Rankings no longer than this are summed in a single pass.
DEFAULT_BLOCK = 16

#: Pair-enumeration chunk size: groups are joined in chunks of at most
#: this many candidate pairs, bounding peak memory at roughly
#: ``chunk * k`` gathered cells regardless of group size.
PAIR_CHUNK = 1 << 18


def validate_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNELS}"
        )
    return kernel


# ----------------------------------------------------------- columnar view


class GroupColumns:
    """Columnar view of one candidate group.

    ``codes`` is the ``(m, k)`` int32 matrix of *localized* item codes in
    rank order (column index == original rank); ``rank_matrix`` the dense
    ``(m, D)`` int16 code -> position table over the group's ``D``
    distinct codes, with the artificial rank ``k`` for absent items —
    the structure every batch gather reads.
    """

    __slots__ = ("k", "codes", "rank_matrix", "code_of")

    def __init__(self, codes, rank_matrix, code_of=None):
        self.k = codes.shape[1]
        self.codes = codes
        self.rank_matrix = rank_matrix
        self.code_of = code_of

    @classmethod
    def from_store(cls, store, rows, max_cells=MAX_RANK_MATRIX_CELLS):
        """Localize store rows (already int codes) into a group view.

        Returns ``None`` when the rank matrix would exceed ``max_cells``
        — the caller falls back to the scalar kernel for this group.
        """
        sub = store.codes[rows]
        if sub.shape[1] > np.iinfo(np.int16).max:
            return None
        uniq, inverse = np.unique(sub, return_inverse=True)
        if sub.shape[0] * len(uniq) > max_cells:
            return None
        dtype = np.int16 if len(uniq) <= np.iinfo(np.int16).max else np.int32
        local = inverse.reshape(sub.shape).astype(dtype, copy=False)
        return cls._build(local, len(uniq), None)

    @classmethod
    def from_rankings(cls, rankings, max_cells=MAX_RANK_MATRIX_CELLS):
        """Localize ranking objects (arbitrary hashable items).

        ``code_of`` keeps the item -> local code table so callers can
        look up a key item's rank column.  Returns ``None`` on overflow
        or on length mismatch (scalar fallback).
        """
        m = len(rankings)
        k = len(rankings[0].items)
        if k > np.iinfo(np.int16).max:
            return None
        code_of: dict = {}
        local = np.empty((m, k), dtype=np.int32)
        for row, ranking in enumerate(rankings):
            items = ranking.items
            if len(items) != k:
                return None
            for pos, item in enumerate(items):
                code = code_of.get(item)
                if code is None:
                    code = code_of[item] = len(code_of)
                local[row, pos] = code
        if m * len(code_of) > max_cells:
            return None
        return cls._build(local, len(code_of), code_of)

    @classmethod
    def _build(cls, local, num_local, code_of):
        m, k = local.shape
        rank_matrix = np.full((m, max(num_local, 1)), k, dtype=np.int16)
        rank_matrix[np.arange(m)[:, None], local] = np.arange(
            k, dtype=np.int16
        )
        return cls(local, rank_matrix, code_of)


# ------------------------------------------------------------- core kernel


def batch_filter_verify(
    cols: GroupColumns,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    theta_raw,
    use_position_filter: bool = True,
    bound=None,
    block: int | None = None,
):
    """Position filter + Footrule verification over whole pair arrays.

    ``a_idx``/``b_idx`` are row indices into ``cols``; ``theta_raw`` (and
    the optional precomputed ``bound``) may be scalars or per-pair
    arrays (the CL typed kernels' Lemma 5.3 thresholds).

    Returns ``(totals, filtered, results)``: per-pair int64 distances
    (only meaningful where ``results``), the position-filter decisions,
    and the result mask — exactly
    ``fused_filter_verify(a, b, theta, use_position_filter)`` per pair.
    """
    pairs = len(a_idx)
    k = cols.k
    t_all = k * (k + 1) // 2
    theta = np.asarray(theta_raw)
    if pairs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    if block is None:
        block = DEFAULT_BLOCK
    if use_position_filter or k <= block:
        # All arithmetic stays in the rank matrix's int16: each value is
        # bounded by k (<= int16 max, enforced at build time), so no
        # cell of the fused contribution overflows and the temporaries
        # cost a quarter of an int64 formulation's memory traffic (the
        # single-pass kernel is bandwidth-bound).  The per-cell Footrule
        # contribution ``|tr-pos| + (tr-k)`` needs no shared/absent
        # branch at all: absent items carry the artificial rank
        # ``tr = k``, where it degenerates to exactly their ``k - pos``
        # mass — one abs-difference and one in-place add per cell.
        k16 = np.int16(k)
        pos = np.arange(k, dtype=np.int16)
        taken = cols.rank_matrix[a_idx[:, None], cols.codes[b_idx]]
        displacement = taken - pos
        np.abs(displacement, out=displacement)
        if use_position_filter:
            if bound is None:
                bound = (
                    theta / 2.0
                    if theta.ndim
                    else position_filter_bound(float(theta))
                )
            bound = np.asarray(bound)
            # ``disp > bound`` with integer disp is ``disp >= floor(bound)
            # + 1`` for any real bound >= 0 — same decisions as the
            # scalar float comparison, without promoting the whole
            # displacement matrix to float64.  Shared displacements are
            # at most k-1, so thresholds past that can never fire.
            if bound.ndim:
                ithresh = np.floor(bound).astype(np.int64) + 1
                np.clip(ithresh, 0, k, out=ithresh)
                limit = ithresh.astype(np.int16)[:, None]
                fired = displacement >= limit
                np.logical_and(fired, taken < k16, out=fired)
                filtered = fired.any(axis=1)
            else:
                ithresh = int(np.floor(float(bound))) + 1
                if ithresh > k - 1:
                    filtered = np.zeros(pairs, dtype=bool)
                else:
                    fired = displacement >= np.int16(ithresh)
                    np.logical_and(fired, taken < k16, out=fired)
                    filtered = fired.any(axis=1)
        else:
            filtered = np.zeros(pairs, dtype=bool)
        # In-place: taken -= k keeps every intermediate in [-k, k].
        taken -= k16
        displacement += taken
        totals = displacement.sum(axis=1, dtype=np.int64)
        totals += t_all
    else:
        # Blocked early exit: rows whose running partial sum (a valid
        # lower bound — every remaining term is >= 0) already exceeds
        # the threshold are compacted away before the next block.
        filtered = np.zeros(pairs, dtype=bool)
        partial = np.zeros(pairs, dtype=np.int64)
        shared_mass = np.zeros(pairs, dtype=np.int64)
        alive = np.arange(pairs)
        for start in range(0, k, block):
            stop = min(start + block, k)
            pos = np.arange(start, stop, dtype=np.int64)
            taken = cols.rank_matrix[
                a_idx[alive][:, None], cols.codes[b_idx[alive], start:stop]
            ].astype(np.int64)
            shared = taken < k
            partial[alive] += np.where(
                shared, np.abs(taken - pos), k - pos
            ).sum(axis=1)
            shared_mass[alive] += np.where(shared, k - taken, 0).sum(axis=1)
            limit = theta[alive] if theta.ndim else theta
            alive = alive[partial[alive] <= limit]
            if alive.size == 0:
                break
        # Dead rows keep a partial total > theta, so their result mask
        # is correctly False; full rows get the exact distance.
        totals = partial + t_all - shared_mass
    results = np.logical_and(~filtered, totals <= theta)
    return totals, filtered, results


def store_batch_verify(store, rids_a, rids_b, theta_raw, block=None):
    """Plain batch verification of explicit rid pairs via the store.

    Used by the CL expansion phase (member-centroid / member-member
    candidates that survived the triangle bounds).  Returns
    ``(totals, results)`` aligned with the pair lists, or ``None`` when
    the localized view would exceed the memory cap (caller falls back to
    the scalar path before touching any counter).
    """
    ordered_rids = dict.fromkeys(rids_a)
    ordered_rids.update(dict.fromkeys(rids_b))
    position = {rid: row for row, rid in enumerate(ordered_rids)}
    rows = store.rows_of(
        np.fromiter(
            iter(ordered_rids), dtype=np.int64, count=len(ordered_rids)
        )
    )
    cols = GroupColumns.from_store(store, rows)
    if cols is None:
        return None
    a_idx = np.fromiter(
        (position[rid] for rid in rids_a), dtype=np.int64, count=len(rids_a)
    )
    b_idx = np.fromiter(
        (position[rid] for rid in rids_b), dtype=np.int64, count=len(rids_b)
    )
    totals, _filtered, results = batch_filter_verify(
        cols, a_idx, b_idx, theta_raw, use_position_filter=False, block=block
    )
    return totals, results


# -------------------------------------------------------- pair enumeration


def _pair_chunks(m: int, max_pairs: int = PAIR_CHUNK):
    """All pairs ``a < b`` of ``range(m)`` in lexicographic order, chunked."""
    total = m * (m - 1) // 2
    if total == 0:
        return
    if total <= max_pairs:
        ii, jj = np.triu_indices(m, k=1)
        yield ii.astype(np.int64, copy=False), jj.astype(np.int64, copy=False)
        return
    a = 0
    while a < m - 1:
        lefts = []
        count = 0
        while a < m - 1 and (not lefts or count + (m - 1 - a) <= max_pairs):
            lefts.append(a)
            count += m - 1 - a
            a += 1
        jj = np.concatenate(
            [np.arange(x + 1, m, dtype=np.int64) for x in lefts]
        )
        ii = np.repeat(
            np.asarray(lefts, dtype=np.int64),
            [m - 1 - x for x in lefts],
        )
        yield ii, jj


def _cross_chunks(m_left: int, m_right: int, max_pairs: int = PAIR_CHUNK):
    """The full ``m_left x m_right`` grid in left-major order, chunked."""
    if m_left == 0 or m_right == 0:
        return
    rows_per = max(1, max_pairs // m_right)
    for start in range(0, m_left, rows_per):
        stop = min(start + rows_per, m_left)
        ii = np.repeat(np.arange(start, stop, dtype=np.int64), m_right)
        jj = np.tile(np.arange(m_right, dtype=np.int64), stop - start)
        yield ii, jj


# ------------------------------------------------- rarest-item rule (bitset)


def earlier_code_masks(code_tuples, key_item: int):
    """Bitsets of each member's emitted prefix codes below the key code.

    The rarest-common-prefix-item rule keeps a pair iff its two members
    share *no* emitted code smaller than the group key (both always share
    the key itself), i.e. iff their earlier-code bitsets are disjoint —
    one vectorized ``AND ... any`` per pair chunk.  Returns ``None``
    when no member has any earlier code (every pair is owned here).
    """
    counts = np.fromiter(
        (len(codes) for codes in code_tuples),
        dtype=np.int64,
        count=len(code_tuples),
    )
    flat = np.fromiter(
        (code for codes in code_tuples for code in codes),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    sel = flat < key_item
    if not sel.any():
        return None
    flat = flat[sel]
    rows = np.repeat(np.arange(len(code_tuples)), counts)[sel]
    earlier = np.unique(flat)
    bits = np.searchsorted(earlier, flat).astype(np.uint64)
    words = (len(earlier) + 63) // 64
    masks = np.zeros((len(code_tuples), words), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (rows, (bits >> np.uint64(6)).astype(np.int64)),
        np.left_shift(np.uint64(1), bits & np.uint64(63)),
    )
    return masks


def _dedup_keep(masks, ii, jj, stats):
    """Apply the rarest-item rule to one pair chunk, counting skips."""
    if masks is None:
        return ii, jj
    # Word-by-word columns instead of a (pairs, words) 2-D gather + axis
    # reduction: one flat AND per word (usually one — 64 earlier codes).
    collide = None
    for word in range(masks.shape[1]):
        column = masks[:, word]
        hits = np.bitwise_and(column[ii], column[jj]) != 0
        if collide is None:
            collide = hits
        else:
            np.logical_or(collide, hits, out=collide)
    skipped = int(np.count_nonzero(collide))
    if skipped:
        stats.dedup_skipped += skipped
        keep = ~collide
        return ii[keep], jj[keep]
    return ii, jj


# ------------------------------------------------- shared kernel scaffolding


def _emit_chunk(
    cols,
    rows_a,
    rows_b,
    ii,
    jj,
    theta,
    stats,
    use_position_filter,
    filter_mode,
    key_ranks_a=None,
    key_ranks_b=None,
    bound=None,
    block=None,
):
    """Count, filter, and verify one pair chunk; yields surviving indices.

    ``filter_mode`` selects the scalar kernel being mirrored: ``"full"``
    (index kernels — the full position filter inside the fused pass) or
    ``"key"`` (nested-loop kernels — the O(1) key-rank displacement check
    before a plain verification).  ``key_ranks_a``/``key_ranks_b`` are
    indexed by ``ii``/``jj`` respectively (the same array for self-join
    kernels, per-side slices for R-S kernels).  ``theta`` and ``bound``
    may be per-pair arrays (CL's typed thresholds).  Yields
    ``(a, b, distance)`` local-index triples for result pairs, in
    ascending pair order.
    """
    stats.candidates += len(ii)
    if ii.size == 0:
        return
    per_pair = np.ndim(theta) == 1
    if filter_mode == "key" and use_position_filter:
        if bound is None:
            bound = (
                theta / 2.0 if per_pair else position_filter_bound(theta)
            )
        passed = ~(np.abs(key_ranks_a[ii] - key_ranks_b[jj]) > bound)
        kept = int(np.count_nonzero(passed))
        if kept != len(ii):
            stats.position_filtered += len(ii) - kept
            ii = ii[passed]
            jj = jj[passed]
            if per_pair:
                theta = theta[passed]
        stats.verified += kept
        if kept == 0:
            return
        totals, _filtered, results = batch_filter_verify(
            cols, rows_a[ii], rows_b[jj], theta,
            use_position_filter=False, block=block,
        )
    elif filter_mode == "key":
        stats.verified += len(ii)
        totals, _filtered, results = batch_filter_verify(
            cols, rows_a[ii], rows_b[jj], theta,
            use_position_filter=False, block=block,
        )
    else:
        totals, filtered, results = batch_filter_verify(
            cols, rows_a[ii], rows_b[jj], theta,
            use_position_filter=use_position_filter, bound=bound,
            block=block,
        )
        dropped = int(np.count_nonzero(filtered))
        stats.position_filtered += dropped
        stats.verified += len(ii) - dropped
    hits = int(np.count_nonzero(results))
    if hits:
        stats.results += hits
        # ``tolist`` converts whole columns to Python ints in one C pass
        # — the per-element ``int(...)`` conversions dominated emission.
        yield from zip(
            ii[results].tolist(),
            jj[results].tolist(),
            totals[results].tolist(),
        )


# --------------------------------------------------- compact batch kernels


def compact_group_batch(
    key_item,
    members,
    store,
    theta_raw,
    channel,
    use_position_filter,
    variant,
    fallback,
    block=None,
):
    """Vectorized compact VJ/VJ-NL group kernel (plain threshold).

    Mirrors :func:`repro.joins.compact.compact_group_indexed` /
    ``compact_group_nested_loop`` exactly on outcomes and counters.
    """
    members = sorted(members)
    m = len(members)
    if m < 2:
        return
    rows = store.rows_of(
        np.fromiter((t[0] for t in members), dtype=np.int64, count=m)
    )
    cols = GroupColumns.from_store(store, rows)
    if cols is None:
        yield from fallback(members)
        return
    stats = local_stats(channel)
    masks = earlier_code_masks([t[2] for t in members], key_item)
    self_rows = np.arange(m, dtype=np.int64)
    filter_mode = "key" if variant == "nl" else "full"
    key_ranks = None
    if variant == "nl":
        key_ranks = np.fromiter(
            (t[1] for t in members), dtype=np.int64, count=m
        )
    bound = (
        position_filter_bound(theta_raw) if use_position_filter else None
    )
    for ii, jj in _pair_chunks(m):
        ii, jj = _dedup_keep(masks, ii, jj, stats)
        for a, b, distance in _emit_chunk(
            cols, self_rows, self_rows, ii, jj, theta_raw, stats,
            use_position_filter, filter_mode, key_ranks, key_ranks, bound,
            block,
        ):
            yield canonical_pair(members[a][0], members[b][0]), distance


def compact_rs_batch(
    left_members,
    right_members,
    key_item,
    store,
    theta_raw,
    channel,
    use_position_filter,
    fallback,
    block=None,
):
    """Vectorized compact R-S kernel between two split sub-partitions."""
    left_members = list(left_members)
    right_members = list(right_members)
    if not left_members or not right_members:
        return
    tokens = left_members + right_members
    rows = store.rows_of(
        np.fromiter(
            (t[0] for t in tokens), dtype=np.int64, count=len(tokens)
        )
    )
    cols = GroupColumns.from_store(store, rows)
    if cols is None:
        yield from fallback(left_members, right_members)
        return
    stats = local_stats(channel)
    m_left = len(left_members)
    masks = earlier_code_masks([t[2] for t in tokens], key_item)
    rows_a = np.arange(m_left, dtype=np.int64)
    rows_b = np.arange(m_left, len(tokens), dtype=np.int64)
    rids_left = np.fromiter(
        (t[0] for t in left_members), dtype=np.int64, count=m_left
    )
    rids_right = np.fromiter(
        (t[0] for t in right_members),
        dtype=np.int64,
        count=len(right_members),
    )
    key_ranks = np.fromiter(
        (t[1] for t in tokens), dtype=np.int64, count=len(tokens)
    )
    bound = (
        position_filter_bound(theta_raw) if use_position_filter else None
    )
    for ii, jj in _cross_chunks(m_left, len(right_members)):
        distinct = rids_left[ii] != rids_right[jj]
        if not distinct.all():
            ii = ii[distinct]
            jj = jj[distinct]
        if masks is not None:
            ii, jj = _dedup_keep(
                masks, ii, np.asarray(jj) + m_left, stats
            )
            jj = jj - m_left
        for a, b, distance in _emit_chunk(
            cols, rows_a, rows_b, ii, jj, theta_raw, stats,
            use_position_filter, "key",
            key_ranks[:m_left], key_ranks[m_left:], bound, block,
        ):
            yield (
                canonical_pair(left_members[a][0], right_members[b][0]),
                distance,
            )


def _typed_thresholds(singletons, ii, jj, theta_raw, theta_c_raw):
    """Lemma 5.3 per-pair thresholds over index arrays."""
    extra = (~singletons[ii]).astype(np.int64) + (
        ~singletons[jj]
    ).astype(np.int64)
    return theta_raw + theta_c_raw * extra


def compact_typed_group_batch(
    key_item,
    members,
    store,
    theta_raw,
    theta_c_raw,
    channel,
    use_position_filter,
    variant,
    fallback,
    emit=None,
    block=None,
):
    """Vectorized CL typed group kernel over slim typed tokens.

    ``emit(token_a, token_b, distance)`` maps each result onto the final
    record (the fallback kernel yields the same record type directly).
    """
    members = sorted(members)
    m = len(members)
    if m < 2:
        return
    rows = store.rows_of(
        np.fromiter((t[0] for t in members), dtype=np.int64, count=m)
    )
    cols = GroupColumns.from_store(store, rows)
    if cols is None:
        yield from fallback(members)
        return
    stats = local_stats(channel)
    masks = earlier_code_masks([t[2] for t in members], key_item)
    singletons = np.fromiter(
        (t[3] for t in members), dtype=bool, count=m
    )
    self_rows = np.arange(m, dtype=np.int64)
    filter_mode = "key" if variant == "nl" else "full"
    key_ranks = np.fromiter(
        (t[1] for t in members), dtype=np.int64, count=m
    )
    for ii, jj in _pair_chunks(m):
        ii, jj = _dedup_keep(masks, ii, jj, stats)
        theta = _typed_thresholds(singletons, ii, jj, theta_raw, theta_c_raw)
        for a, b, distance in _emit_chunk(
            cols, self_rows, self_rows, ii, jj, theta, stats,
            use_position_filter, filter_mode, key_ranks, key_ranks, None,
            block,
        ):
            yield emit(members[a], members[b], distance)


def compact_typed_rs_batch(
    key_item,
    left_members,
    right_members,
    store,
    theta_raw,
    theta_c_raw,
    channel,
    use_position_filter,
    fallback,
    emit=None,
    block=None,
):
    """Vectorized CL typed R-S kernel (CL-P's split posting lists)."""
    left_members = list(left_members)
    right_members = list(right_members)
    if not left_members or not right_members:
        return
    tokens = left_members + right_members
    rows = store.rows_of(
        np.fromiter(
            (t[0] for t in tokens), dtype=np.int64, count=len(tokens)
        )
    )
    cols = GroupColumns.from_store(store, rows)
    if cols is None:
        yield from fallback(left_members, right_members)
        return
    stats = local_stats(channel)
    m_left = len(left_members)
    masks = earlier_code_masks([t[2] for t in tokens], key_item)
    singletons = np.fromiter(
        (t[3] for t in tokens), dtype=bool, count=len(tokens)
    )
    rows_a = np.arange(m_left, dtype=np.int64)
    rows_b = np.arange(m_left, len(tokens), dtype=np.int64)
    rids_left = np.fromiter(
        (t[0] for t in left_members), dtype=np.int64, count=m_left
    )
    rids_right = np.fromiter(
        (t[0] for t in right_members),
        dtype=np.int64,
        count=len(right_members),
    )
    key_ranks = np.fromiter(
        (t[1] for t in tokens), dtype=np.int64, count=len(tokens)
    )
    for ii, jj in _cross_chunks(m_left, len(right_members)):
        distinct = rids_left[ii] != rids_right[jj]
        if not distinct.all():
            ii = ii[distinct]
            jj = jj[distinct]
        shifted = jj + m_left
        if masks is not None:
            ii, shifted = _dedup_keep(masks, ii, shifted, stats)
            jj = shifted - m_left
        theta = _typed_thresholds(
            singletons, ii, shifted, theta_raw, theta_c_raw
        )
        for a, b, distance in _emit_chunk(
            cols, rows_a, rows_b, ii, jj, theta, stats,
            use_position_filter, "key", key_ranks[:m_left],
            key_ranks[m_left:], None, block,
        ):
            yield emit(left_members[a], right_members[b], distance)
