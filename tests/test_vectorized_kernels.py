"""The vectorized batch kernels equal the scalar oracle, bit for bit.

``kernel="vectorized"`` rewrites the verification phase of every
distributed algorithm — columnar group localization, closed-form Footrule
sums over whole pair arrays, bitset deduplication, blocked early exit —
and must change *nothing observable*: result tuples (including which
distances are ``None``), the filter decisions, and every ``JoinStats``
counter are pinned byte-identical to ``kernel="scalar"``.  The contract
is tested three ways:

* hypothesis equivalence on adversarial tiny-domain datasets across all
  four algorithms, both prefix schemes, the repartitioning (R-S)
  branch, and the position filter on/off — the CL
  runs also exercise the typed Lemma 5.3 thresholds with their mixed
  singleton/member prefix lengths;
* unit equivalence of the primitives against their scalar counterparts:
  :func:`batch_filter_verify` vs ``fused_filter_verify`` per pair (all
  block sizes, scalar and per-pair thresholds),
  :func:`earlier_code_masks` vs ``first_common``,
  :func:`store_batch_verify` vs ``verify``;
* executor independence: serial, threads, and processes agree per
  kernel, and the kernels agree with each other on every backend.

The :class:`~repro.rankings.encoding.ColumnarStore` tests also pin the
laziness regression: building the store materializes no ranking objects
(the old dict store built every rank table up front, which dominated
small-theta runs), and only the scalar path materializes anything at all.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import bruteforce_join, cl_join, vj_join
from repro.joins.compact import compact_ordering, first_common
from repro.joins.kernels import (
    DEFAULT_BLOCK,
    GroupColumns,
    batch_filter_verify,
    earlier_code_masks,
    store_batch_verify,
    validate_kernel,
)
from repro.joins.verification import fused_filter_verify, verify
from repro.minispark import Context
from repro.rankings import Ranking, RankingDataset
from repro.rankings.encoding import ColumnarStore
from repro.rankings.ordering import OrderedRanking

K = 5
DOMAIN = list(range(11))


def datasets(min_size=2, max_size=14):
    ranking = st.permutations(DOMAIN).map(lambda p: tuple(p[:K]))
    return st.lists(ranking, min_size=min_size, max_size=max_size).map(
        lambda rows: RankingDataset(
            [Ranking(i, row) for i, row in enumerate(rows)]
        )
    )


thetas = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6])


def _signature(result):
    """Everything the kernels must agree on: tuples + every counter."""
    pairs = sorted(
        result.pairs, key=lambda t: (t[0], t[1], t[2] is None, t[2] or 0.0)
    )
    return pairs, vars(result.stats)


# --------------------------------------------------- hypothesis: algorithms


@settings(max_examples=40, deadline=None)
@given(
    datasets(),
    thetas,
    st.sampled_from(["overlap", "ordered"]),
    st.sampled_from(["index", "nl"]),
    st.booleans(),
)
def test_vj_vectorized_equals_scalar(
    dataset, theta, prefix, variant, use_position_filter
):
    scalar = vj_join(
        Context(3), dataset, theta, prefix=prefix, variant=variant,
        use_position_filter=use_position_filter, kernel="scalar",
    )
    vectorized = vj_join(
        Context(3), dataset, theta, prefix=prefix, variant=variant,
        use_position_filter=use_position_filter, kernel="vectorized",
    )
    assert _signature(vectorized) == _signature(scalar)
    brute = {(i, j) for i, j, _d in bruteforce_join(dataset, theta).pairs}
    assert {(i, j) for i, j, _d in vectorized.pairs} == brute


@settings(max_examples=40, deadline=None)
@given(
    datasets(),
    thetas,
    st.sampled_from(["index", "nl"]),
    st.sampled_from([None, 4]),
)
def test_vj_repartitioned_vectorized_equals_scalar(
    dataset, theta, variant, partition_threshold
):
    scalar = vj_join(
        Context(3), dataset, theta, variant=variant,
        partition_threshold=partition_threshold, kernel="scalar",
    )
    vectorized = vj_join(
        Context(3), dataset, theta, variant=variant,
        partition_threshold=partition_threshold, kernel="vectorized",
    )
    assert _signature(vectorized) == _signature(scalar)


@settings(max_examples=40, deadline=None)
@given(
    datasets(),
    thetas,
    st.sampled_from(["index", "nl"]),
    st.sampled_from([None, 4]),
    st.booleans(),
)
def test_cl_vectorized_equals_scalar(
    dataset, theta, variant, partition_threshold, triangle_accept
):
    # theta_c < theta exercises the typed thresholds with mixed
    # singleton/member prefix lengths; cl-p adds the typed R-S branch.
    scalar = cl_join(
        Context(3), dataset, theta, theta_c=min(0.03, theta),
        variant=variant, partition_threshold=partition_threshold,
        triangle_accept=triangle_accept, kernel="scalar",
    )
    vectorized = cl_join(
        Context(3), dataset, theta, theta_c=min(0.03, theta),
        variant=variant, partition_threshold=partition_threshold,
        triangle_accept=triangle_accept, kernel="vectorized",
    )
    assert _signature(vectorized) == _signature(scalar)


def test_validate_kernel():
    assert validate_kernel("vectorized") == "vectorized"
    assert validate_kernel("scalar") == "scalar"
    with pytest.raises(ValueError):
        validate_kernel("simd")
    with pytest.raises(ValueError):
        vj_join(Context(2), RankingDataset([]), 0.1, kernel="simd")


# ------------------------------------------- unit: batch_filter_verify


def _random_rankings(n, k, domain, seed):
    rng = random.Random(seed)
    return [Ranking(i, rng.sample(range(domain), k)) for i in range(n)]


@pytest.mark.parametrize("k,domain", [(5, 11), (20, 28)])
@pytest.mark.parametrize("use_position_filter", [True, False])
@pytest.mark.parametrize("block", [2, 3, None])
def test_batch_filter_verify_matches_fused(
    k, domain, use_position_filter, block
):
    # k=20 with the filter off exercises the blocked early-exit path
    # (k > DEFAULT_BLOCK); explicit tiny blocks force row compaction.
    rankings = _random_rankings(24, k, domain, seed=k)
    cols = GroupColumns.from_rankings(rankings)
    assert cols is not None
    theta_raw = k * (k + 1) // 4  # midrange: results, rejects, filters
    ii, jj = np.triu_indices(len(rankings), k=1)
    totals, filtered, results = batch_filter_verify(
        cols, ii, jj, theta_raw,
        use_position_filter=use_position_filter, block=block,
    )
    for pos in range(len(ii)):
        a, b = rankings[int(ii[pos])], rankings[int(jj[pos])]
        distance, was_filtered = fused_filter_verify(
            a, b, theta_raw, use_position_filter
        )
        assert bool(filtered[pos]) == was_filtered
        assert bool(results[pos]) == (distance is not None)
        if distance is not None:
            assert int(totals[pos]) == distance


def test_batch_filter_verify_per_pair_thresholds():
    # CL's Lemma 5.3 path: each pair verified at its own threshold.
    rankings = _random_rankings(16, K, 11, seed=3)
    cols = GroupColumns.from_rankings(rankings)
    ii, jj = np.triu_indices(len(rankings), k=1)
    rng = random.Random(9)
    theta = np.array(
        [rng.choice([2, 5, 9, 14]) for _ in range(len(ii))], dtype=np.int64
    )
    for use_filter in (True, False):
        totals, filtered, results = batch_filter_verify(
            cols, ii, jj, theta, use_position_filter=use_filter
        )
        for pos in range(len(ii)):
            a, b = rankings[int(ii[pos])], rankings[int(jj[pos])]
            distance, was_filtered = fused_filter_verify(
                a, b, int(theta[pos]), use_filter
            )
            assert bool(filtered[pos]) == was_filtered
            assert bool(results[pos]) == (distance is not None)
            if distance is not None:
                assert int(totals[pos]) == distance


def test_batch_filter_verify_empty():
    cols = GroupColumns.from_rankings(_random_rankings(3, K, 11, seed=0))
    empty = np.zeros(0, dtype=np.int64)
    totals, filtered, results = batch_filter_verify(cols, empty, empty, 5)
    assert totals.size == filtered.size == results.size == 0


# ---------------------------------------------------- unit: GroupColumns


def test_group_columns_rank_matrix():
    rankings = [Ranking(0, (4, 2, 7)), Ranking(1, (7, 4, 9))]
    cols = GroupColumns.from_rankings(rankings)
    k = cols.k
    assert k == 3
    for row, ranking in enumerate(rankings):
        for code, rank in ranking.ranks.items():
            assert cols.rank_matrix[row, cols.code_of[code]] == rank
        # Codes absent from a ranking read k (the "not shared" sentinel).
        for code in set(cols.code_of) - set(ranking.items):
            assert cols.rank_matrix[row, cols.code_of[code]] == k


def test_group_columns_overflow_returns_none():
    rankings = _random_rankings(8, K, 11, seed=1)
    assert GroupColumns.from_rankings(rankings, max_cells=4) is None
    store = ColumnarStore.from_ordered(
        [_ordered(r) for r in rankings], num_codes=11
    )
    rows = np.arange(len(rankings), dtype=np.int64)
    assert GroupColumns.from_store(store, rows, max_cells=4) is None
    assert GroupColumns.from_store(store, rows) is not None


def _ordered(ranking):
    return OrderedRanking(
        ranking, [(item, pos) for pos, item in enumerate(ranking.items)]
    )


# ------------------------------------------ unit: dedup bitsets and store


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=40), max_size=6),
        min_size=2,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=40),
)
def test_earlier_code_masks_match_first_common(prefixes, key):
    # Every member's emitted prefix contains the group key, as in the
    # real token stream.
    code_tuples = [tuple(sorted(codes | {key})) for codes in prefixes]
    masks = earlier_code_masks(code_tuples, key)
    for a in range(len(code_tuples)):
        for b in range(a + 1, len(code_tuples)):
            owned = first_common(code_tuples[a], code_tuples[b]) == key
            if masks is None:
                shared_earlier = False
            else:
                shared_earlier = bool(
                    np.bitwise_and(masks[a], masks[b]).any()
                )
            assert owned == (not shared_earlier)


def test_store_batch_verify_matches_scalar_verify():
    rankings = _random_rankings(30, K, 11, seed=4)
    store = ColumnarStore.from_ordered(
        [_ordered(r) for r in rankings], num_codes=11
    )
    rng = random.Random(5)
    rids_a = np.array([rng.randrange(30) for _ in range(50)], dtype=np.int64)
    rids_b = np.array([rng.randrange(30) for _ in range(50)], dtype=np.int64)
    theta_raw = 8
    totals, results = store_batch_verify(store, rids_a, rids_b, theta_raw)
    for pos in range(50):
        expected = verify(
            rankings[int(rids_a[pos])], rankings[int(rids_b[pos])], theta_raw
        )
        assert bool(results[pos]) == (expected is not None)
        if expected is not None:
            assert int(totals[pos]) == expected


# ------------------------------------------- ColumnarStore and laziness


class TestColumnarStore:
    def _store(self, n=10, seed=2):
        rankings = _random_rankings(n, K, 11, seed=seed)
        store = ColumnarStore.from_ordered(
            [_ordered(r) for r in rankings], num_codes=11
        )
        return store, rankings

    def test_layout_and_lookup(self):
        store, rankings = self._store()
        assert len(store) == len(rankings)
        assert store.k == K
        assert list(store) == [r.rid for r in rankings]
        for ranking in rankings:
            assert ranking.rid in store
            assert store[ranking.rid].ranking.items == ranking.items

    def test_build_materializes_nothing(self):
        # The laziness regression: the legacy dict store built every
        # ranking's rank table up front, which dominated small-theta
        # runs where almost nothing is verified.
        store, rankings = self._store()
        assert store.materialized_count() == 0
        store[rankings[0].rid]
        store[rankings[0].rid]  # cached, not rebuilt
        assert store.materialized_count() == 1

    def test_pickle_ships_arrays_only(self):
        store, rankings = self._store()
        for ranking in rankings[:4]:
            store[ranking.rid]
        clone = pickle.loads(pickle.dumps(store))
        assert clone.materialized_count() == 0
        assert np.array_equal(clone.codes, store.codes)
        assert np.array_equal(clone.rids, store.rids)
        assert clone.row_of == store.row_of
        assert clone[rankings[2].rid].ranking.items == rankings[2].items

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            ColumnarStore.from_ordered(
                [_ordered(Ranking(0, (1, 2, 3))),
                 _ordered(Ranking(1, (1, 2)))],
                num_codes=4,
            )

    def test_compact_ordering_builds_lazy_store(self):
        rankings = _random_rankings(40, K, 11, seed=6)
        ctx = Context(4)
        ordered, store, _encoder = compact_ordering(
            ctx, ctx.parallelize(rankings, 4)
        )
        assert isinstance(store.value, ColumnarStore)
        assert len(store.value) == len(rankings)
        # Building the store must not materialize a single ranking
        # object, whatever theta the join later runs at.
        assert store.value.materialized_count() == 0
        ordered.unpersist()


# ----------------------------------------------- executors x kernels


@pytest.mark.parametrize("algorithm", ["vj", "vj-nl", "cl", "cl-p"])
@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
def test_kernels_agree_on_every_backend(small_dblp, algorithm, executor):
    def run(kernel):
        ctx = Context(4, executor=executor, max_workers=2)
        if algorithm in ("vj", "vj-nl"):
            return vj_join(
                ctx, small_dblp, 0.2,
                variant="nl" if algorithm == "vj-nl" else "index",
                kernel=kernel,
            )
        kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
        return cl_join(
            ctx, small_dblp, 0.2, theta_c=0.03, kernel=kernel, **kwargs
        )

    assert _signature(run("vectorized")) == _signature(run("scalar"))


def test_default_block_is_sane():
    assert DEFAULT_BLOCK >= 1
