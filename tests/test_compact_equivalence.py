"""The token pipeline returns exactly the brute-force result.

The joins shuffle integer-encoded rankings as slim ``(rid, key_rank,
prefix_codes)`` tokens, resolve rankings from a broadcast store, and
deduplicate by the rarest-common-prefix-item rule; none of that may show
in what is returned.  These tests pin that contract three ways:

* hypothesis equivalence: on adversarial tiny-domain datasets, vj, vj-nl,
  cl, and cl-p return the brute-force pair set, each pair once and every
  verified distance exact, across prefix schemes and the repartitioning
  branch;
* the rarest-item rule really leaves nothing to deduplicate: running the
  (redundant) ``distinct_pairs`` shuffle anyway (``oracle_distinct``)
  changes nothing, and results contain no duplicate pairs;
* executor independence: serial, threads, and processes backends agree
  with brute force.

Test ids that say ``equals_legacy`` are kept because the tier-1 floor
list names them; brute force is the reference in every one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import similarity_join
from repro.joins import bruteforce_join, cl_join, vj_join
from repro.joins.compact import first_common, pair_threshold
from repro.minispark import Context
from repro.rankings import Ranking, RankingDataset
from repro.rankings.encoding import (
    ItemEncoder,
    encode_ordered,
    encode_rank_ordered,
)
from repro.rankings.ordering import item_frequencies, order_ranking

K = 5
DOMAIN = list(range(11))


def datasets(min_size=2, max_size=14):
    ranking = st.permutations(DOMAIN).map(lambda p: tuple(p[:K]))
    return st.lists(ranking, min_size=min_size, max_size=max_size).map(
        lambda rows: RankingDataset(
            [Ranking(i, row) for i, row in enumerate(rows)]
        )
    )


thetas = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.95, 1.0])


def _pairs(result):
    """Full result tuples, sorted — None distances must match too."""
    return sorted(
        result.pairs, key=lambda t: (t[0], t[1], t[2] is None, t[2] or 0.0)
    )


def _assert_matches_bruteforce(result, dataset, theta):
    """The brute-force pairs, each once, every verified distance exact.

    CL's triangle-accepted pairs carry no distance (``None``); a distance
    the join did compute must be the true one.
    """
    exact = {(i, j): d for i, j, d in bruteforce_join(dataset, theta).pairs}
    assert sorted((i, j) for i, j, _d in result.pairs) == sorted(exact)
    assert all(d == exact[i, j] for i, j, d in result.pairs if d is not None)


# ----------------------------------------------------- hypothesis: VJ family


@settings(max_examples=50, deadline=None)
@given(
    datasets(),
    thetas,
    st.sampled_from(["overlap", "ordered"]),
    st.sampled_from(["index", "nl"]),
)
def test_vj_compact_equals_legacy_and_bruteforce(
    dataset, theta, prefix, variant
):
    result = vj_join(
        Context(3), dataset, theta, prefix=prefix, variant=variant
    )
    assert all(d is not None for _i, _j, d in result.pairs)
    _assert_matches_bruteforce(result, dataset, theta)


@settings(max_examples=40, deadline=None)
@given(datasets(), thetas, st.integers(min_value=2, max_value=6))
def test_vj_compact_repartitioned_equals_legacy(dataset, theta, delta):
    result = vj_join(
        Context(3), dataset, theta, variant="nl", partition_threshold=delta
    )
    _assert_matches_bruteforce(result, dataset, theta)


@settings(max_examples=40, deadline=None)
@given(datasets(), thetas, st.sampled_from(["index", "nl"]))
def test_vj_compact_generates_each_pair_exactly_once(dataset, theta, variant):
    with_oracle = vj_join(
        Context(3), dataset, theta, variant=variant, oracle_distinct=True
    )
    without = vj_join(Context(3), dataset, theta, variant=variant)
    # distinct_pairs merges duplicates; if the rarest-item rule left any,
    # the undeduplicated run would return more records.
    assert _pairs(without) == _pairs(with_oracle)
    pairs = [(i, j) for i, j, _ in without.pairs]
    assert len(pairs) == len(set(pairs))


# ------------------------------------------------------- hypothesis: CL


@settings(max_examples=40, deadline=None)
@given(
    datasets(),
    thetas,
    st.sampled_from([0.0, 0.02, 0.05, 0.1]),
    st.sampled_from(["index", "nl"]),
)
def test_cl_compact_equals_legacy_and_bruteforce(
    dataset, theta, theta_c, variant
):
    theta_c = min(theta_c, theta)
    result = cl_join(
        Context(3), dataset, theta, theta_c=theta_c, variant=variant
    )
    _assert_matches_bruteforce(result, dataset, theta)


@settings(max_examples=30, deadline=None)
@given(datasets(), thetas, st.integers(min_value=2, max_value=6))
def test_clp_compact_equals_legacy(dataset, theta, delta):
    theta_c = min(0.03, theta)
    result = cl_join(
        Context(3), dataset, theta, theta_c=theta_c,
        partition_threshold=delta,
    )
    _assert_matches_bruteforce(result, dataset, theta)


@settings(max_examples=30, deadline=None)
@given(datasets(), thetas)
def test_cl_compact_no_duplicate_pairs(dataset, theta):
    result = cl_join(Context(3), dataset, theta, theta_c=min(0.03, theta))
    pairs = [(i, j) for i, j, _ in result.pairs]
    assert len(pairs) == len(set(pairs))


# --------------------------------------------------- executors (one shot)


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize(
    "algorithm, kwargs",
    [
        ("vj", dict(variant="index")),
        ("vj-nl", dict(variant="nl")),
        ("cl", dict()),
        ("cl-p", dict(partition_threshold=8)),
    ],
)
def test_compact_equals_legacy_on_every_executor(
    small_dblp, executor, algorithm, kwargs
):
    ctx = Context(default_parallelism=4, executor=executor)
    join = vj_join if algorithm.startswith("vj") else cl_join
    result = join(ctx, small_dblp, 0.2, **kwargs)
    _assert_matches_bruteforce(result, small_dblp, 0.2)


# ------------------------------------------------------------- unit tests


int_tuples = st.lists(
    st.integers(min_value=0, max_value=30), max_size=8
).map(lambda xs: tuple(sorted(set(xs))))


@settings(max_examples=200, deadline=None)
@given(int_tuples, int_tuples)
def test_first_common_is_min_of_intersection(a, b):
    shared = set(a) & set(b)
    expected = min(shared) if shared else None
    assert first_common(a, b) == expected


def test_item_encoder_codes_follow_canonical_order():
    frequencies = {"a": 3, "b": 1, "c": 1, "d": 2}
    encoder = ItemEncoder(frequencies)
    # ascending (frequency, item): b, c, d, a
    assert encoder.items == ("b", "c", "d", "a")
    assert [encoder.encode(x) for x in "bcda"] == [0, 1, 2, 3]
    assert [encoder.decode(code) for code in range(4)] == list("bcda")
    assert len(encoder) == 4
    with pytest.raises(KeyError):
        encoder.encode("zebra")


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_encode_ordered_matches_legacy_canonical_order(dataset):
    frequencies = item_frequencies(dataset.rankings)
    encoder = ItemEncoder(frequencies)
    for ranking in dataset:
        legacy = order_ranking(ranking, frequencies)
        encoded = encode_ordered(ranking, encoder)
        assert [
            (encoder.decode(code), rank) for code, rank in encoded.pairs
        ] == list(legacy.pairs)
        assert encoded.ranking.items == tuple(
            encoder.encode(item) for item in ranking.items
        )


def test_encode_rank_ordered_keeps_rank_order():
    encoder = ItemEncoder({10: 5, 20: 1, 30: 3})
    encoded = encode_rank_ordered(Ranking(0, [10, 30, 20]), encoder)
    assert [rank for _code, rank in encoded.pairs] == [0, 1, 2]
    assert [encoder.decode(c) for c, _ in encoded.pairs] == [10, 30, 20]


def test_pair_threshold_matches_lemma_5_3():
    assert pair_threshold(True, True, 10.0, 2.0) == 10.0
    assert pair_threshold(True, False, 10.0, 2.0) == 12.0
    assert pair_threshold(False, True, 10.0, 2.0) == 12.0
    assert pair_threshold(False, False, 10.0, 2.0) == 14.0


def test_token_format_keyword_is_gone(small_dblp):
    """There is one token pipeline; selecting another is a plain TypeError."""
    with pytest.raises(TypeError, match="token_format"):
        similarity_join(small_dblp, 0.2, algorithm="vj", token_format="legacy")
