"""Unit tests for pre-estimation, the two calculation phases and summarization."""

import numpy as np
import pytest

from repro.core.accumulators import RegionMoments
from repro.core.boundaries import DataBoundaries
from repro.core.calculation import BlockCalculator, iteration_phase, sampling_phase
from repro.core.config import ISLAConfig
from repro.core.modulation import ModulationCase
from repro.core.pre_estimation import PreEstimator
from repro.core.result import BlockResult
from repro.core.summarization import combine_block_results, combine_partial_means
from repro.errors import EstimationError
from repro.storage.block import Block


class TestPreEstimation:
    def test_estimates_sigma_sketch_and_rate(self, normal_store, rng):
        config = ISLAConfig(precision=0.1)
        estimate = PreEstimator(config).estimate(normal_store, rng=rng)
        assert estimate.sigma == pytest.approx(20.0, rel=0.1)
        assert estimate.sketch0 == pytest.approx(100.0, abs=1.0)
        expected_rate = (1.96 * estimate.sigma / 0.1) ** 2 / normal_store.total_rows
        assert estimate.sampling_rate == pytest.approx(min(1.0, expected_rate), rel=0.01)
        assert estimate.relaxed_precision == pytest.approx(config.relaxed_precision)
        assert estimate.required_sample_size > 0

    def test_sketch_uses_relaxed_precision(self, normal_store, rng):
        config = ISLAConfig(precision=0.5, relaxed_factor=2.0)
        estimate = PreEstimator(config).estimate(normal_store, rng=rng)
        # The sketch sample is about (te)^2 times smaller than the main sample.
        assert estimate.sketch_sample_size < estimate.required_sample_size

    def test_constant_column_degenerates_gracefully(self, rng):
        from repro.storage.blockstore import BlockStore

        store = BlockStore.from_array("const", np.full(1_000, 42.0), block_count=4)
        estimate = PreEstimator(ISLAConfig()).estimate(store, rng=rng)
        assert estimate.sigma == 0.0
        assert estimate.sketch0 == pytest.approx(42.0)
        assert 0.0 < estimate.sampling_rate <= 1.0


class TestSamplingPhase:
    def test_accumulates_only_s_and_l(self, rng):
        block = Block.from_values(0, rng.normal(100.0, 20.0, size=50_000))
        boundaries = DataBoundaries.from_sketch(100.0, 20.0)
        param_s, param_l, drawn = sampling_phase(block, "value", 0.2, boundaries, rng)
        assert drawn == 10_000
        # With the paper's boundaries roughly 57% of a normal sample is S or L.
        participating = param_s.count + param_l.count
        assert 0.45 * drawn < participating < 0.70 * drawn
        # S values are below the centre, L values above: check via the means.
        assert param_s.mean < 100.0 < param_l.mean

    def test_zero_rate_returns_empty(self, rng):
        block = Block.from_values(0, rng.normal(0, 1, size=100))
        boundaries = DataBoundaries.from_sketch(0.0, 1.0)
        param_s, param_l, drawn = sampling_phase(block, "value", 0.0, boundaries, rng)
        assert drawn == 0
        assert param_s.is_empty and param_l.is_empty


class TestIterationPhase:
    def test_balanced_returns_sketch(self):
        param_s = RegionMoments.from_values([80.0] * 100)
        param_l = RegionMoments.from_values([120.0] * 100)
        output = iteration_phase(param_s, param_l, 100.5, ISLAConfig())
        assert output.estimate == 100.5
        assert output.case is ModulationCase.BALANCED
        assert not output.used_fallback

    def test_empty_region_falls_back_to_sketch(self):
        output = iteration_phase(
            RegionMoments(), RegionMoments.from_values([120.0] * 10), 99.0, ISLAConfig()
        )
        assert output.used_fallback
        assert output.estimate == 99.0
        assert output.fallback_reason == "empty_S_region"

    def test_unbalanced_block_is_modulated(self, rng):
        sample = rng.normal(100.0, 20.0, size=40_000)
        sketch0 = 101.0
        boundaries = DataBoundaries.from_sketch(sketch0, 20.0)
        s_values, l_values = boundaries.split_sl(sample)
        output = iteration_phase(
            RegionMoments.from_values(s_values),
            RegionMoments.from_values(l_values),
            sketch0,
            ISLAConfig(),
        )
        assert output.case is not ModulationCase.BALANCED
        assert output.iterations > 0
        assert abs(output.estimate - 100.0) < abs(sketch0 - 100.0)

    def test_clamping_to_sketch_interval(self, rng):
        sample = rng.normal(100.0, 20.0, size=5_000)
        sketch0 = 102.0
        boundaries = DataBoundaries.from_sketch(sketch0, 20.0)
        s_values, l_values = boundaries.split_sl(sample)
        config = ISLAConfig(clamp_to_sketch_interval=True)
        output = iteration_phase(
            RegionMoments.from_values(s_values),
            RegionMoments.from_values(l_values),
            sketch0,
            config,
            sketch_interval_radius=0.05,
        )
        assert sketch0 - 0.05 <= output.estimate <= sketch0 + 0.05


class TestBlockCalculator:
    def test_produces_complete_block_result(self, rng):
        block = Block.from_values(3, rng.normal(100.0, 20.0, size=30_000))
        boundaries = DataBoundaries.from_sketch(100.3, 20.0)
        result = BlockCalculator(ISLAConfig()).run(
            block, "value", 0.3, boundaries, 100.3, rng
        )
        assert isinstance(result, BlockResult)
        assert result.block_id == 3
        assert result.block_size == 30_000
        assert result.sample_size == 9_000
        assert result.participating_samples == result.count_s + result.count_l
        assert result.converged


class TestPhasesOnALargeBlock:
    """Algorithms 1 and 2 on a 500k-row N(100, 20^2) block."""

    @pytest.fixture(scope="class")
    def block_and_boundaries(self):
        rng = np.random.default_rng(0)
        block = Block.from_values(0, rng.normal(100.0, 20.0, size=500_000))
        return block, DataBoundaries.from_sketch(100.1, 20.0)

    def test_sampling_phase_draws_the_rate(self, block_and_boundaries):
        block, boundaries = block_and_boundaries
        param_s, param_l, drawn = sampling_phase(
            block, "value", 0.1, boundaries, np.random.default_rng(1)
        )
        assert drawn == 50_000
        assert param_s.count > 0 and param_l.count > 0

    def test_iteration_phase_converges(self, block_and_boundaries):
        block, boundaries = block_and_boundaries
        param_s, param_l, _ = sampling_phase(
            block, "value", 0.2, boundaries, np.random.default_rng(2)
        )
        assert iteration_phase(param_s, param_l, 100.4, ISLAConfig()).converged


class TestSummarization:
    def test_weighted_combination(self):
        assert combine_partial_means([10.0, 20.0], [1, 3]) == pytest.approx(17.5)

    def test_combine_block_results(self):
        blocks = [
            BlockResult(block_id=0, estimate=10.0, block_size=100, sample_size=10,
                        count_s=3, count_l=3, case="case5", iterations=0, alpha=0.0,
                        q=1.0, deviation=1.0, converged=True, used_fallback=False),
            BlockResult(block_id=1, estimate=20.0, block_size=300, sample_size=30,
                        count_s=9, count_l=9, case="case5", iterations=0, alpha=0.0,
                        q=1.0, deviation=1.0, converged=True, used_fallback=False),
        ]
        assert combine_block_results(blocks) == pytest.approx(17.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EstimationError):
            combine_partial_means([], [])
        with pytest.raises(EstimationError):
            combine_block_results([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            combine_partial_means([1.0], [1, 2])
