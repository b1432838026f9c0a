"""Integration tests for the full ISLA pipeline."""

import numpy as np
import pytest

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.errors import EmptyDataError, PartialResultError
from repro.storage.blockstore import BlockStore
from repro.workloads.synthetic import ExponentialWorkload, NormalWorkload, UniformWorkload


class TestAggregateAvg:
    def test_meets_precision_on_paper_default_workload(self, normal_store):
        config = ISLAConfig(precision=0.5)
        truth = normal_store.exact_mean()
        result = ISLAAggregator(config, seed=11).aggregate_avg(normal_store)
        assert result.error_against(truth) <= config.precision
        assert result.aggregate == "avg"
        assert result.method == "ISLA"
        assert result.sample_size > 0
        assert len(result.block_results) == normal_store.block_count

    def test_result_metadata_is_consistent(self, normal_store):
        config = ISLAConfig(precision=0.5)
        result = ISLAAggregator(config, seed=11).aggregate_avg(normal_store)
        assert result.data_size == normal_store.total_rows
        assert result.interval.contains(result.value)
        assert result.precision == config.precision
        assert result.confidence == config.confidence
        assert result.participating_samples <= result.sample_size
        assert 0.0 < result.sampling_rate <= 1.0
        dictionary = result.to_dict()
        assert dictionary["value"] == result.value
        assert dictionary["blocks"] == normal_store.block_count

    def test_same_seed_is_deterministic(self, normal_store):
        config = ISLAConfig(precision=0.5)
        first = ISLAAggregator(config, seed=3).aggregate_avg(normal_store)
        second = ISLAAggregator(config, seed=3).aggregate_avg(normal_store)
        assert first.value == pytest.approx(second.value, rel=1e-12)

    def test_rate_override_controls_sample_size(self, normal_store):
        config = ISLAConfig(precision=0.5)
        full = ISLAAggregator(config, seed=4).aggregate_avg(normal_store)
        third = ISLAAggregator(config, seed=4).aggregate_avg(
            normal_store, rate=full.sampling_rate / 3.0
        )
        assert third.sample_size == pytest.approx(full.sample_size / 3.0, rel=0.05)

    def test_accepts_external_rng(self, normal_store):
        config = ISLAConfig(precision=0.5)
        rng = np.random.default_rng(9)
        result = ISLAAggregator(config).aggregate_avg(normal_store, rng=rng)
        assert result.error_against(normal_store.exact_mean()) < 1.0

    def test_negative_data_translation(self):
        """The footnote-1 trick: all-negative data still aggregate correctly."""
        workload = NormalWorkload(200_000, mean=-500.0, std=20.0, seed=8)
        store = workload.generate_store("negative", block_count=10)
        config = ISLAConfig(precision=0.5)
        result = ISLAAggregator(config, seed=8).aggregate_avg(store)
        assert result.translation_offset > 0.0
        assert result.error_against(store.exact_mean()) <= 3 * config.precision

    def test_small_store_with_empty_regions_falls_back(self):
        store = BlockStore.from_array("tiny", np.full(200, 7.0), block_count=2)
        result = ISLAAggregator(ISLAConfig(precision=0.5), seed=1).aggregate_avg(store)
        assert result.value == pytest.approx(7.0)
        assert result.fallback_blocks == 2

    def test_empty_store_rejected(self):
        store = BlockStore(name="empty")
        with pytest.raises(EmptyDataError):
            ISLAAggregator(ISLAConfig(), seed=0).aggregate_avg(store)

    def test_million_rows_in_ten_blocks(self):
        values = np.random.default_rng(3).normal(100.0, 20.0, size=1_000_000)
        store = BlockStore.from_array("large", values, block_count=10)
        result = ISLAAggregator(ISLAConfig(precision=0.5), seed=4).aggregate_avg(store)
        assert abs(result.value - 100.0) < 1.0


class TestTelemetryToggle:
    def test_forced_toggle_names_an_enabled_ambient_sink(self, normal_store):
        from repro import obs

        ambient = obs.Telemetry(enabled=True)
        aggregator = ISLAAggregator(ISLAConfig(precision=0.5, telemetry=True), seed=3)
        with ambient.activate():
            aggregator.aggregate_avg(normal_store)
        assert aggregator.telemetry is ambient
        assert ambient.tracer.last_trace().name == "isla.aggregate"


class TestConvergenceFailure:
    """A block that exhausts ``max_iterations`` is a failed partition."""

    CONFIG = ISLAConfig(precision=0.5, max_iterations=1, threshold=1e-12)

    @pytest.fixture(scope="class")
    def store(self):
        return NormalWorkload(12_000, mean=100.0, std=20.0, seed=101).generate_store(
            "normal", block_count=8
        )

    def test_unconverged_blocks_degrade_the_answer(self, store):
        result = ISLAAggregator(self.CONFIG, seed=1).aggregate_avg(store)
        assert result.degraded
        assert result.failed_partitions == (0, 1, 2, 3, 4, 5)
        # Only blocks that needed no round survive: one round cannot reach 1e-12.
        assert [block.block_id for block in result.block_results] == [6, 7]
        assert all(block.iterations == 0 for block in result.block_results)
        assert result.interval.radius > self.CONFIG.precision
        assert result.sample_fraction == pytest.approx(2 / 8)

    def test_no_survivor_raises_partial_result_error(self, store):
        with pytest.raises(PartialResultError, match="ConvergenceError"):
            ISLAAggregator(self.CONFIG, seed=4).aggregate_avg(store)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_failures_do_not_depend_on_parallelism(self, store, parallelism):
        result = ISLAAggregator(
            self.CONFIG, seed=1, parallelism=parallelism
        ).aggregate_avg(store)
        assert result.failed_partitions == (0, 1, 2, 3, 4, 5)


class TestAggregateSum:
    def test_sum_is_avg_times_size(self, normal_store):
        config = ISLAConfig(precision=0.5)
        aggregator = ISLAAggregator(config, seed=21)
        avg = aggregator.aggregate_avg(normal_store)
        total = ISLAAggregator(config, seed=21).aggregate_sum(normal_store)
        assert total.aggregate == "sum"
        assert total.value == pytest.approx(avg.value * normal_store.total_rows, rel=1e-9)
        assert total.precision == pytest.approx(config.precision * normal_store.total_rows)
        assert total.error_against(normal_store.exact_sum()) <= total.precision


class TestOtherDistributions:
    def test_exponential_shape(self):
        """Table VI shape: ISLA under-estimates mildly; stays within ~20%."""
        workload = ExponentialWorkload(300_000, rate=0.1, seed=2)
        store = workload.generate_store("exp", block_count=10)
        result = ISLAAggregator(ISLAConfig(precision=0.1), seed=2).aggregate_avg(store)
        assert 8.0 <= result.value <= 10.5

    def test_uniform_distribution_accuracy(self):
        """Table VII shape: ISLA lands close to 100 on Uniform[1, 199]."""
        workload = UniformWorkload(300_000, low=1.0, high=199.0, seed=2)
        store = workload.generate_store("uniform", block_count=10)
        result = ISLAAggregator(ISLAConfig(precision=0.1), seed=2).aggregate_avg(store)
        assert result.value == pytest.approx(100.0, abs=1.5)
