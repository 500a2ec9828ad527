"""White-box tests of the CL algorithm's building blocks (Section 5).

The expansion routines are exercised exactly as ``cl_join`` calls them —
member rids plus a broadcast-style store — and every case runs on both
kernels: the scalar per-member loop is the reference the vectorized
chunked path must match in pairs and in every ``JoinStats`` counter.
"""

import random

from repro.joins import clustered
from repro.joins.clustered import (
    EXPANSION_CHUNK,
    _expand_member_centroid_compact,
    _expand_member_member_compact,
    _same_cluster_pairs_compact,
)
from repro.joins.compact import _compact_typed_value, pair_threshold
from repro.joins.types import JoinStats
from repro.rankings import Ranking, footrule, item_frequencies
from repro.rankings.encoding import ColumnarStore, ItemEncoder, encode_ordered

KERNELS = ("vectorized", "scalar")


class _Store:
    """Stands in for the broadcast handle: routines only read ``.value``."""

    def __init__(self, *rankings):
        encoder = ItemEncoder(item_frequencies(rankings))
        self.value = ColumnarStore.from_ordered(
            [encode_ordered(ranking, encoder) for ranking in rankings],
            len(encoder),
        )


def _on_both_kernels(routine, *args, **kwargs):
    """Run ``routine`` per kernel; pairs and all counters must agree."""
    outcomes = []
    for kernel in KERNELS:
        stats = JoinStats()
        pairs = list(routine(*args, stats=stats, kernel=kernel, **kwargs))
        outcomes.append((pairs, stats))
    (pairs, stats), (scalar_pairs, scalar_stats) = outcomes
    assert pairs == scalar_pairs
    assert vars(stats) == vars(scalar_stats)
    return pairs, stats


class TestPairThreshold:
    """Lemma 5.3's three cases."""

    def test_both_non_singleton(self):
        assert pair_threshold(False, False, 20, 3) == 26

    def test_mixed(self):
        assert pair_threshold(True, False, 20, 3) == 23
        assert pair_threshold(False, True, 20, 3) == 23

    def test_both_singleton(self):
        assert pair_threshold(True, True, 20, 3) == 20


class TestTypedValue:
    def test_orders_by_rid(self):
        key, (d, s_first, s_second) = _compact_typed_value(
            9, True, 1, False, 12
        )
        assert key == (1, 9)
        assert (s_first, s_second) == (False, True)
        assert d == 12


class TestSameClusterPairs:
    store = _Store(
        Ranking(1, [1, 2, 3, 4, 5]),
        Ranking(2, [1, 2, 3, 4, 5]),
        Ranking(3, [2, 1, 3, 4, 5]),
    )
    members = [(1, 0), (2, 0), (3, 2)]

    def test_certain_regime_emits_unverified(self):
        """2 * theta_c <= theta: pairs emitted with distance None."""
        pairs, stats = _on_both_kernels(
            _same_cluster_pairs_compact, self.members, self.store,
            theta_raw=10, theta_c_raw=2,
        )
        assert set(pairs) == {
            ((1, 2), None), ((1, 3), None), ((2, 3), None),
        }
        assert stats.triangle_accepted == 3
        assert stats.verified == 0

    def test_uncertain_regime_verifies(self):
        """2 * theta_c > theta: pairs must be verified against theta."""
        pairs, stats = _on_both_kernels(
            _same_cluster_pairs_compact, self.members, self.store,
            theta_raw=1, theta_c_raw=2,
        )
        # 1~2 identical (0 <= 1); 1~3 and 2~3 are one swap = 2 > 1.
        assert dict(pairs) == {(1, 2): 0}
        assert stats.verified == 3


class TestExpandMemberCentroid:
    cluster = [(5, 4)]

    def _expand(self, other_items, centroid_distance, triangle_accept=True):
        store = _Store(
            Ranking(5, [1, 2, 3, 4, 5]), Ranking(9, other_items)
        )
        return _on_both_kernels(
            _expand_member_centroid_compact, self.cluster,
            (9, centroid_distance), store, theta_raw=10,
            triangle_accept=triangle_accept,
        )

    def test_triangle_prune(self):
        """|d(c,o) - d(m,c)| > theta: impossible pair, never verified."""
        out, stats = self._expand([9, 8, 7, 6, 1], 30)
        assert out == []
        assert stats.triangle_filtered == 1
        assert stats.verified == 0

    def test_triangle_accept(self):
        """d(c,o) + d(m,c) <= theta: certain result, no verification."""
        out, stats = self._expand([1, 2, 3, 4, 5], 2)
        assert out == [((5, 9), None)]
        assert stats.triangle_accepted == 1

    def test_accept_disabled_verifies(self):
        out, stats = self._expand([1, 2, 3, 4, 5], 2, triangle_accept=False)
        assert out == [((5, 9), 0)]
        assert stats.verified == 1

    def test_self_pair_skipped(self):
        out, stats = _on_both_kernels(
            _expand_member_centroid_compact, [(5, 3)], (5, 3),
            _Store(Ranking(5, [1, 2, 3, 4, 5])), theta_raw=10,
            triangle_accept=True,
        )
        assert out == []
        assert stats.candidates == 0


class TestExpandMemberMember:
    def _expand(self, items_j, hop, distance_j, theta_raw):
        store = _Store(Ranking(1, [1, 2, 3, 4, 5]), Ranking(2, items_j))
        return _on_both_kernels(
            _expand_member_member_compact, hop, [(2, distance_j)], store,
            theta_raw=theta_raw, triangle_accept=True,
        )

    def test_lower_bound_prune(self):
        out, stats = self._expand([9, 8, 7, 6, 0], (1, 1, 40), 1, 10)
        assert out == []
        assert stats.triangle_filtered == 1

    def test_upper_bound_accept(self):
        out, stats = self._expand([1, 2, 3, 5, 4], (1, 2, 4), 2, 10)
        assert out == [((1, 2), None)]
        assert stats.triangle_accepted == 1

    def test_verification_between_bounds(self):
        # One swap: distance 2.
        out, stats = self._expand([2, 1, 3, 4, 5], (1, 3, 6), 3, 4)
        assert out == [((1, 2), 2)]
        assert stats.verified == 1

    def test_self_pair_skipped(self):
        out, stats = _on_both_kernels(
            _expand_member_member_compact, (1, 1, 2), [(1, 1)],
            _Store(Ranking(1, [1, 2, 3, 4, 5])), theta_raw=10,
            triangle_accept=True,
        )
        assert out == []
        assert stats.candidates == 0


class TestExpansionChunking:
    """One cluster of ``EXPANSION_CHUNK + 1`` members, streamed in chunks."""

    @staticmethod
    def _scenario():
        rng = random.Random(7)
        centroid = Ranking(0, [0, 1, 2, 3, 4])
        other = Ranking(1, [1, 0, 2, 3, 4])
        cluster = [
            Ranking(rid, rng.sample(range(6), 5))
            for rid in range(2, EXPANSION_CHUNK + 2)
        ]
        # The lone member of the second chunk is 8 from the centroid and
        # 6 from ``other``: between the triangle bounds, so it is verified.
        cluster.append(Ranking(EXPANSION_CHUNK + 2, [1, 2, 3, 4, 0]))
        members = [(m.rid, footrule(centroid, m)) for m in cluster]
        assert len(members) == EXPANSION_CHUNK + 1
        return _Store(centroid, other, *cluster), members, centroid, other

    def _assert_mixed_outcomes(self, pairs, stats):
        """The scenario reaches every branch of the expansion."""
        assert stats.triangle_filtered and stats.triangle_accepted
        assert 0 < stats.results < stats.verified
        assert any(d is None for _pair, d in pairs)

    def test_member_centroid_chunks_match_scalar(self, monkeypatch):
        store, members, centroid, other = self._scenario()
        calls = []
        real = clustered.store_batch_verify

        def counting(store, rids_a, *rest):
            calls.append(len(rids_a))
            return real(store, rids_a, *rest)

        monkeypatch.setattr(clustered, "store_batch_verify", counting)
        pairs, stats = _on_both_kernels(
            _expand_member_centroid_compact, members,
            (other.rid, footrule(centroid, other)), store, theta_raw=8,
            triangle_accept=True,
        )
        assert len(calls) == 2  # one batch per chunk, vectorized run only
        assert sum(calls) == stats.verified
        self._assert_mixed_outcomes(pairs, stats)

    def test_member_member_chunks_match_scalar(self):
        store, members, centroid, other = self._scenario()
        # ``other`` as a member, 2 from its own centroid, of a cluster 14
        # away: members within 4 of ``centroid`` are triangle-filtered.
        _pairs, stats = _on_both_kernels(
            _expand_member_member_compact, (other.rid, 2, 14), members,
            store, theta_raw=8, triangle_accept=True,
        )
        assert stats.candidates == len(members)
        assert stats.triangle_filtered
        assert 0 < stats.results < stats.verified

    def test_memory_cap_falls_back_to_scalar_per_chunk(self, monkeypatch):
        """``store_batch_verify`` -> None: same pairs, no counter moved twice.

        The vectorized run has to redo each chunk on the scalar loop; equal
        counters show it had not already counted the chunk.
        """
        store, members, centroid, other = self._scenario()
        monkeypatch.setattr(
            clustered, "store_batch_verify", lambda *args, **kwargs: None
        )
        pairs, stats = _on_both_kernels(
            _expand_member_centroid_compact, members,
            (other.rid, footrule(centroid, other)), store, theta_raw=8,
            triangle_accept=True,
        )
        self._assert_mixed_outcomes(pairs, stats)
        _on_both_kernels(
            _expand_member_member_compact, (other.rid, 2, 14), members,
            store, theta_raw=8, triangle_accept=True,
        )


class TestClusterScenario:
    """A hand-built dataset where the cluster structure is fully known."""

    def _dataset(self):
        from repro.rankings import RankingDataset

        return RankingDataset(
            [
                Ranking(0, [1, 2, 3, 4, 5]),   # centroid of the family
                Ranking(1, [1, 2, 3, 4, 5]),   # duplicate -> member of 0
                Ranking(2, [2, 1, 3, 4, 5]),   # one swap  -> member of 0
                Ranking(3, [9, 8, 7, 6, 0]),   # far away  -> singleton
            ]
        )

    def test_cluster_structure(self):
        from repro.joins import cl_join
        from repro.minispark import Context

        result = cl_join(
            Context(2), self._dataset(), theta=0.3, theta_c=0.1
        )
        # theta_c raw = 3: pairs (0,1) d=0 and (0,2)/(1,2) d=2 all cluster.
        assert result.stats.clusters >= 1
        assert result.stats.singletons == 1
        assert result.pair_set() == {(0, 1), (0, 2), (1, 2)}
