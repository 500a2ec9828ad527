"""Serving-layer equivalence: mutations never break exactness.

The serving guarantee mirrors the join side's central property: whatever
interleaving of inserts, deletes, re-canonicalizations, and queries a
:class:`ShardedIndex` sees, its answers equal (a) a fresh index built
from scratch over the surviving rankings and (b) brute force — and a
stream of delta joins accumulates to exactly the batch
``similarity_join`` result, pairs and distances byte-identical.

Hypothesis drives the interleavings; tiny domains force heavy item
overlap, deep cluster structure, and real frequency drift (the frozen
canonical order falls far behind the live one mid-sequence, which is
precisely when a prefix-agreement bug would surface).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import similarity_join
from repro.rankings import Ranking, RankingDataset
from repro.search import CoarseIndex, PrefixIndex, range_search_bruteforce
from repro.serving import ShardedIndex, delta_join

K = 5
DOMAIN = list(range(12))

INDEX_KINDS = ("prefix", "coarse")
KERNELS = ("scalar", "vectorized")


def rankings_strategy(min_size=1, max_size=16):
    items = st.permutations(DOMAIN).map(lambda p: tuple(p[:K]))
    return st.lists(items, min_size=min_size, max_size=max_size).map(
        lambda rows: [Ranking(i, row) for i, row in enumerate(rows)]
    )


# One op per ranking slot: arrive, arrive-then-leave, or arrive, leave,
# and arrive again (same rid, possibly long after — the recycled-rid
# path).  Interleaved with queries and re-canonicalizations below.
ops_strategy = st.lists(
    st.sampled_from(["insert", "insert_delete", "reinsert", "recanon"]),
    min_size=1,
    max_size=16,
)

thetas = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])


def _pairs(results):
    return [(r.rid, d) for r, d in results]


def _apply_script(index, rankings, script):
    """Run one mutation script; returns the surviving rankings."""
    alive = {}
    pending_reinsert = []
    for slot, op in enumerate(script):
        if slot >= len(rankings):
            break
        ranking = rankings[slot]
        if op == "recanon":
            index.recanonicalize()
            continue
        index.insert(ranking)
        alive[ranking.rid] = ranking
        if op == "insert_delete":
            index.delete(ranking.rid)
            del alive[ranking.rid]
        elif op == "reinsert":
            index.delete(ranking.rid)
            del alive[ranking.rid]
            pending_reinsert.append(ranking)
    for ranking in pending_reinsert:
        index.insert(ranking)
        alive[ranking.rid] = ranking
    return list(alive.values())


@settings(max_examples=40, deadline=None)
@given(
    rankings_strategy(),
    ops_strategy,
    thetas,
    st.sampled_from(INDEX_KINDS),
    st.sampled_from(KERNELS),
    st.integers(min_value=1, max_value=4),
)
def test_mutated_index_equals_rebuild_and_bruteforce(
    rankings, script, theta, kind, kernel, num_shards
):
    index = ShardedIndex(
        kind=kind, num_shards=num_shards, theta_max=0.3, kernel=kernel, k=K
    )
    survivors = _apply_script(index, rankings, script)
    assert len(index) == len(survivors)
    assert sorted(r.rid for r in index.rankings()) == sorted(
        r.rid for r in survivors
    )

    rebuilt_cls = PrefixIndex if kind == "prefix" else CoarseIndex
    rebuilt = (
        rebuilt_cls(RankingDataset(survivors), theta_max=0.3)
        if survivors
        else rebuilt_cls(theta_max=0.3, k=K)
    )
    for query in rankings[: min(len(rankings), 6)]:
        got = _pairs(index.query(query, theta, include_self=True))
        from_rebuild = _pairs(rebuilt.query(query, theta, include_self=True))
        truth = _pairs(
            range_search_bruteforce(
                survivors, query, theta, include_self=True
            )
        )
        assert got == truth
        assert sorted(from_rebuild) == sorted(truth)


@settings(max_examples=30, deadline=None)
@given(
    rankings_strategy(min_size=2),
    thetas,
    st.sampled_from(INDEX_KINDS),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
)
def test_delta_join_stream_equals_batch_join(
    rankings, theta, kind, batch_size, recanon_after
):
    """Initial join + stream of delta joins == one batch self-join."""
    dataset = RankingDataset(rankings)
    batch = similarity_join(
        dataset, theta, algorithm="local"
    ).with_distances(dataset)

    index = ShardedIndex(kind=kind, num_shards=2, theta_max=0.3, k=K)
    accumulated = []
    for start in range(0, len(rankings), batch_size):
        delta = delta_join(
            rankings[start : start + batch_size], index, theta
        )
        accumulated.extend(delta.pairs)
        if recanon_after and (start // batch_size) % recanon_after == 0:
            index.recanonicalize()
    assert sorted(accumulated) == sorted(batch.pairs)


@settings(max_examples=10, deadline=None)
@given(rankings_strategy(min_size=4, max_size=12), st.sampled_from([0.1, 0.2]))
def test_delta_join_matches_distributed_join(rankings, theta):
    """The delta stream reproduces the distributed CL join."""
    dataset = RankingDataset(rankings)
    index = ShardedIndex(kind="prefix", num_shards=2, theta_max=0.3, k=K)
    accumulated = sorted(delta_join(rankings, index, theta).pairs)
    batch = similarity_join(
        dataset,
        theta,
        algorithm="cl",
        executor="serial",
        num_partitions=2,
    ).with_distances(dataset)
    assert accumulated == sorted(batch.pairs)


@settings(max_examples=25, deadline=None)
@given(
    rankings_strategy(min_size=1),
    ops_strategy,
    thetas,
    st.sampled_from(INDEX_KINDS),
)
def test_query_mid_recanonicalization(rankings, script, theta, kind):
    """Answers stay exact after every partial step of a shard rebuild."""
    index = ShardedIndex(kind=kind, num_shards=3, theta_max=0.3, k=K)
    survivors = _apply_script(index, rankings, script)
    query = rankings[0]
    truth = _pairs(
        range_search_bruteforce(survivors, query, theta, include_self=True)
    )
    for _shard_id in index.recanonicalize_steps():
        assert _pairs(index.query(query, theta, include_self=True)) == truth
    assert _pairs(index.query(query, theta, include_self=True)) == truth


@settings(max_examples=25, deadline=None)
@given(
    rankings_strategy(min_size=2, max_size=10),
    st.lists(st.integers(min_value=0, max_value=9), max_size=10),
    thetas,
    st.sampled_from(KERNELS),
)
def test_query_batch_equals_serial_queries(rankings, probe_ids, theta, kernel):
    """The coalesced kernel path answers exactly like one-at-a-time."""
    index = ShardedIndex(
        RankingDataset(rankings), kind="prefix", num_shards=2,
        theta_max=0.3, kernel=kernel,
    )
    queries = [rankings[i % len(rankings)] for i in probe_ids]
    batched = index.query_batch(queries, theta, include_self=True)
    serial = [index.query(q, theta, include_self=True) for q in queries]
    assert [_pairs(b) for b in batched] == [_pairs(s) for s in serial]


def test_drift_metric_moves_and_resets():
    """Drift grows as the live order diverges, and recanonicalize zeroes it."""
    base = [Ranking(i, tuple(range(i, i + K))) for i in range(6)]
    index = ShardedIndex(RankingDataset(base), kind="prefix", num_shards=2)
    assert index.drift()["score"] == 0.0
    for i in range(6, 30):
        index.insert(Ranking(i, tuple(range(100 + i, 100 + i + K))))
    assert index.drift()["score"] > 0.0
    assert index.drift()["new_item_fraction"] > 0.0
    index.recanonicalize()
    assert index.drift()["score"] == 0.0
    assert index.recanonicalizations == 1


def test_auto_recanonicalization_triggers():
    index = ShardedIndex(
        kind="prefix", num_shards=2, k=K,
        drift_threshold=0.01, drift_check_every=8,
    )
    for i in range(64):
        index.insert(Ranking(i, tuple(range(i, i + K))))
    assert index.recanonicalizations > 0
    # Still exact afterwards.
    query = Ranking(1000, tuple(range(3, 3 + K)))
    got = _pairs(index.query(query, 0.3, include_self=True))
    truth = _pairs(
        range_search_bruteforce(
            index.rankings(), query, 0.3, include_self=True
        )
    )
    assert got == truth
