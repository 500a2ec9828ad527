"""Shuffle-byte accounting: sampling estimator, metrics, and cost model."""

import pickle

import pytest

from repro.bench.harness import RunConfig, RunRecord, run
from repro.bench.reporting import record_payload
from repro.joins import cl_join, vj_join
from repro.minispark import Context
from repro.minispark.cluster import ClusterConfig, ClusterModel, CostModel
from repro.minispark.metrics import JobMetrics, StageMetrics
from repro.minispark.scheduler import estimate_shuffle_bytes


def pickled_size(record) -> int:
    return len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))


class TestEstimator:
    def test_exact_when_sample_covers_everything(self):
        outputs = [[(1, "a"), (2, "bb")], [(3, "ccc")]]
        expected = sum(pickled_size(r) for bucket in outputs for r in bucket)
        assert estimate_shuffle_bytes(outputs, sample=64) == expected

    def test_sampling_extrapolates_to_total_records(self):
        outputs = [[(i, i) for i in range(1000)]]
        exact = sum(pickled_size(r) for r in outputs[0])
        sampled = estimate_shuffle_bytes(outputs, sample=8)
        # Homogeneous records: the stride sample lands within a few percent.
        assert abs(sampled - exact) / exact < 0.05

    def test_empty_and_disabled(self):
        assert estimate_shuffle_bytes([[], []], sample=64) == 0
        assert estimate_shuffle_bytes([[(1, 2)]], sample=0) == 0

    def test_deterministic(self):
        outputs = [[(i, str(i) * (i % 7)) for i in range(500)], []]
        assert estimate_shuffle_bytes(outputs, 16) == estimate_shuffle_bytes(
            outputs, 16
        )

    def test_unpicklable_records_are_skipped(self):
        outputs = [[(1, lambda: None)]]  # lambdas do not pickle
        assert estimate_shuffle_bytes(outputs, sample=4) == 0


class TestStageAccounting:
    def test_every_wide_dependency_reports_bytes(self, ctx):
        pairs = ctx.parallelize([(i % 3, "x" * 50) for i in range(30)], 3)
        pairs.group_by_key().collect()
        job = ctx.metrics.jobs[-1]
        shuffle_stages = [
            s for s in job.stages if s.name.startswith("shuffle:")
        ]
        assert shuffle_stages
        for stage in shuffle_stages:
            assert stage.shuffle_bytes > 0
        assert job.total_shuffle_bytes == sum(
            s.shuffle_bytes for s in job.stages
        )

    def test_result_stage_reports_no_bytes(self, ctx):
        ctx.parallelize(range(10), 2).collect()
        stage = ctx.metrics.jobs[-1].stages[-1]
        assert stage.shuffle_bytes == 0

    def test_bytes_scale_with_payload_size(self):
        def total_bytes(payload):
            ctx = Context(default_parallelism=2)
            ctx.parallelize(
                [(i % 4, payload) for i in range(40)], 2
            ).group_by_key().collect()
            return ctx.metrics.combined().total_shuffle_bytes

        assert total_bytes("y" * 400) > 4 * total_bytes("y")

    def test_disable_knob(self):
        ctx = Context(default_parallelism=2, shuffle_byte_sample=0)
        ctx.parallelize([(1, 2), (3, 4)], 2).group_by_key().collect()
        assert ctx.metrics.combined().total_shuffle_bytes == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError, match="shuffle_byte_sample"):
            Context(shuffle_byte_sample=-1)

    def test_join_algorithms_populate_bytes(self, small_dblp):
        for run_join in (
            lambda ctx: vj_join(ctx, small_dblp, 0.2),
            lambda ctx: cl_join(ctx, small_dblp, 0.2),
        ):
            ctx = Context(default_parallelism=4)
            run_join(ctx)
            combined = ctx.metrics.combined()
            assert combined.total_shuffle_records > 0
            assert combined.total_shuffle_bytes > 0


class TestClusterModel:
    def test_bytes_add_network_time(self):
        model = ClusterModel(ClusterConfig(num_nodes=1))
        base = model.stage_seconds([0.1], 100)
        with_bytes = model.stage_seconds([0.1], 100, 10**9)
        assert with_bytes == pytest.approx(
            base + 10**9 * model.cost_model.shuffle_byte_seconds
        )

    def test_two_positional_args_still_work(self):
        # The pre-bytes call signature used by older callers/tests.
        model = ClusterModel(ClusterConfig())
        assert model.stage_seconds([0.1], 100) > 0

    def test_simulate_includes_stage_bytes(self):
        job = JobMetrics("j")
        stage = StageMetrics("shuffle:rdd0")
        stage.task_seconds = [0.01]
        stage.shuffle_records = 10
        stage.shuffle_bytes = 5 * 10**8
        job.stages.append(stage)
        model = ClusterModel(
            ClusterConfig(num_nodes=1), CostModel(shuffle_byte_seconds=1e-9)
        )
        without = ClusterModel(
            ClusterConfig(num_nodes=1), CostModel(shuffle_byte_seconds=0.0)
        )
        assert model.simulate(job) == pytest.approx(
            without.simulate(job) + 0.5
        )


class TestBenchSurface:
    @pytest.fixture(autouse=True)
    def tiny_bench_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.08")

    def test_run_record_carries_shuffle_totals(self):
        record = run(
            RunConfig(
                algorithm="vj", workload="dblp", theta=0.3, num_partitions=4
            ),
            clusters={},
        )
        assert record.shuffle_records > 0
        assert record.shuffle_bytes > 0

    def test_record_payload_has_shuffle_fields(self):
        config = RunConfig(algorithm="cl", workload="dblp", theta=0.2)
        record = RunRecord(
            config=config, wall_seconds=1.0, simulated={}, result_count=3,
            phase_seconds={}, stats={}, shuffle_records=42,
            shuffle_bytes=4242,
        )
        payload = record_payload(record)
        assert payload["shuffle_records"] == 42
        assert payload["shuffle_bytes"] == 4242
