"""White-box tests of the VJ pipeline's building blocks."""

from types import SimpleNamespace

from repro.joins.compact import emit_prefix_tokens, make_compact_kernels
from repro.joins.jaccard import order_rankings_rdd
from repro.joins.types import JoinStats
from repro.minispark import Context
from repro.rankings import Ranking, item_frequencies
from repro.rankings.encoding import ColumnarStore, ItemEncoder, encode_ordered


class TestOrderRankingsRdd:
    def _rankings(self):
        return [
            Ranking(0, [1, 2, 3]),
            Ranking(1, [2, 3, 4]),
            Ranking(2, [3, 4, 5]),
        ]

    def test_frequency_order_matches_local_ordering(self):
        ctx = Context(2)
        rankings = self._rankings()
        ordered = order_rankings_rdd(
            ctx, ctx.parallelize(rankings, 2)
        ).collect()
        frequencies = item_frequencies(rankings)
        for o in ordered:
            counts = [frequencies[item] for item, _rank in o.pairs]
            assert counts == sorted(counts)

    def test_ordering_runs_a_frequency_job(self):
        ctx = Context(2)
        order_rankings_rdd(ctx, ctx.parallelize(self._rankings(), 2)).collect()
        # At least two jobs: the reduceByKey collect + the final collect.
        assert len(ctx.metrics.jobs) >= 2


class TestMakeKernels:
    def _group(self):
        """A posting-list group: every member contains the key item 1.

        Item 1 is the globally rarest item (code 0), so its group owns
        every pair under the rarest-common-prefix-item rule.  Returns
        ``(key_code, tokens, store)``.
        """
        rankings = [
            Ranking(0, [1, 2, 3, 4, 5]),
            Ranking(1, [1, 2, 3, 4, 5]),
            Ranking(2, [9, 8, 7, 6, 1]),
        ]
        encoder = ItemEncoder({1: 1, **{item: 2 for item in range(2, 10)}})
        ordered = [encode_ordered(r, encoder) for r in rankings]
        key = encoder.code_of[1]
        tokens = [
            token
            for o in ordered
            for code, token in emit_prefix_tokens(o, prefix_size=5)
            if code == key
        ]
        store = SimpleNamespace(
            value=ColumnarStore.from_ordered(ordered, len(encoder))
        )
        return key, tokens, store

    def test_index_and_nl_kernels_agree(self):
        key, group, store = self._group()
        for variant in ("index", "nl"):
            kernel, _rs = make_compact_kernels(
                variant, theta_raw=10, store=store, stats=JoinStats(),
                use_position_filter=True,
            )
            found = {pair for pair, _d in kernel(key, group)}
            assert found == {(0, 1)}, variant

    def test_rs_kernel_respects_threshold(self):
        key, group, store = self._group()
        _kernel, rs = make_compact_kernels(
            "nl", theta_raw=10, store=store, stats=JoinStats(),
            use_position_filter=True,
        )
        found = {pair for pair, _d in rs(key, group[:1], group[1:])}
        assert found == {(0, 1)}

    def test_stats_shared_between_kernels(self):
        stats = JoinStats()
        key, group, store = self._group()
        kernel, rs = make_compact_kernels(
            "nl", theta_raw=10, store=store, stats=stats,
            use_position_filter=True,
        )
        list(kernel(key, group))
        list(rs(key, group[:1], group[1:]))
        assert stats.candidates > 0
