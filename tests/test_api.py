"""The similarity_join facade."""

import pytest

from repro import ALGORITHMS, Context, similarity_join
from repro.joins import bruteforce_join
from repro.minispark import FaultPlan, SpeculationPolicy


class TestDispatch:
    @pytest.mark.parametrize(
        "algorithm", ("bruteforce", "local", "vj", "vj-nl", "cl")
    )
    def test_all_algorithms_agree(self, small_dblp, algorithm):
        truth = bruteforce_join(small_dblp, 0.25).pair_set()
        result = similarity_join(small_dblp, 0.25, algorithm=algorithm)
        assert result.pair_set() == truth

    def test_clp_with_delta(self, small_dblp):
        truth = bruteforce_join(small_dblp, 0.25).pair_set()
        result = similarity_join(
            small_dblp, 0.25, algorithm="cl-p", partition_threshold=10
        )
        assert result.pair_set() == truth

    def test_clp_requires_delta(self, small_dblp):
        with pytest.raises(ValueError, match="partition_threshold"):
            similarity_join(small_dblp, 0.25, algorithm="cl-p")

    def test_jaccard_algorithm(self, small_dblp):
        from repro.joins import jaccard_bruteforce

        truth = jaccard_bruteforce(small_dblp, 0.5).pair_set()
        result = similarity_join(small_dblp, 0.5, algorithm="jaccard")
        assert result.pair_set() == truth

    def test_unknown_algorithm(self, small_dblp):
        with pytest.raises(ValueError, match="unknown algorithm"):
            similarity_join(small_dblp, 0.2, algorithm="quantum")

    def test_algorithms_tuple_is_exported(self):
        assert "cl" in ALGORITHMS
        assert "vj" in ALGORITHMS

    def test_explicit_context_reused(self, small_dblp):
        ctx = Context(default_parallelism=4)
        similarity_join(small_dblp, 0.2, algorithm="vj", ctx=ctx)
        assert len(ctx.metrics.jobs) > 0

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("executor", "threads"),
            ("max_workers", 8),
            ("task_retries", 2),
            ("chaos", FaultPlan(seed=1, transient_rate=0.1)),
            ("speculation", SpeculationPolicy()),
            ("trace", True),
            ("memory_budget_bytes", 1 << 20),
            ("spill_dir", "/tmp"),
        ],
    )
    def test_context_only_keyword_rejected_with_ctx(
        self, small_dblp, keyword, value
    ):
        ctx = Context(default_parallelism=4)
        with pytest.raises(ValueError, match=f"either ctx or {keyword},"):
            similarity_join(
                small_dblp, 0.2, algorithm="vj", ctx=ctx, **{keyword: value}
            )
        assert not ctx.metrics.jobs  # rejected before anything ran

    def test_options_forwarded(self, small_dblp):
        result = similarity_join(
            small_dblp, 0.2, algorithm="cl", theta_c=0.05
        )
        truth = bruteforce_join(small_dblp, 0.2).pair_set()
        assert result.pair_set() == truth

    def test_num_partitions_forwarded(self, small_dblp):
        result = similarity_join(
            small_dblp, 0.2, algorithm="vj", num_partitions=3
        )
        assert result.pair_set() == bruteforce_join(small_dblp, 0.2).pair_set()
