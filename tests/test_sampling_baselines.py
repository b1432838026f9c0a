"""Unit tests for the baseline samplers and estimators."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    BiLevelAggregator,
    BlockLevelAggregator,
    ErrorBoundedStratifiedAggregator,
    MeasureBiasedBoundaryAggregator,
    MeasureBiasedValueAggregator,
    SlevAggregator,
    StratifiedAggregator,
    UniformAggregator,
)
from repro.storage.blockstore import BlockStore


class TestBaseRateResolution:
    def test_rate_and_precision_are_mutually_exclusive(self, normal_store):
        with pytest.raises(SamplingError):
            UniformAggregator(seed=0).aggregate(normal_store, rate=0.1, precision=0.5)

    def test_one_of_rate_or_precision_required(self, normal_store):
        with pytest.raises(SamplingError):
            UniformAggregator(seed=0).aggregate(normal_store)

    def test_invalid_rate_rejected(self, normal_store):
        with pytest.raises(SamplingError):
            UniformAggregator(seed=0).aggregate(normal_store, rate=1.7)

    def test_precision_derives_reasonable_rate(self, normal_store):
        estimate = UniformAggregator(seed=0).aggregate(normal_store, precision=0.5)
        # sigma ~ 20, e = 0.5, beta = 0.95 -> m ~ 6150 over 200k rows -> ~3%.
        assert 0.02 < estimate.sampling_rate < 0.045


class TestUniformAndStratified:
    def test_uniform_estimate_is_unbiased(self, normal_store):
        truth = normal_store.exact_mean()
        estimates = [
            UniformAggregator(seed=s).aggregate(normal_store, rate=0.02).value
            for s in range(10)
        ]
        assert np.mean(estimates) == pytest.approx(truth, abs=0.3)

    def test_stratified_proportional(self, normal_store):
        estimate = StratifiedAggregator(seed=1).aggregate(normal_store, rate=0.02)
        assert estimate.method == "STS"
        assert estimate.value == pytest.approx(normal_store.exact_mean(), abs=1.0)
        assert estimate.details["allocation"] == "proportional"

    def test_stratified_neyman_allocates_more_to_spread_blocks(self):
        arrays = [np.random.default_rng(0).normal(100, 1, 20_000),
                  np.random.default_rng(1).normal(100, 50, 20_000)]
        store = BlockStore.from_block_arrays("two", arrays)
        estimate = StratifiedAggregator(allocation="neyman", seed=2).aggregate(store, rate=0.05)
        per_stratum = estimate.details["per_stratum"]
        assert per_stratum[1] > per_stratum[0]

    def test_stratified_invalid_allocation(self):
        with pytest.raises(SamplingError):
            StratifiedAggregator(allocation="magic")


class TestMeasureBiased:
    def test_mv_is_biased_upward_on_normal_data(self, normal_store):
        """The paper's Table III: MV lands near (mu^2 + sigma^2) / mu = 104."""
        estimate = MeasureBiasedValueAggregator(seed=3).aggregate(normal_store, rate=0.05)
        assert estimate.value == pytest.approx(104.0, abs=1.0)

    def test_mvb_is_between_mv_and_truth(self, normal_store):
        mv = MeasureBiasedValueAggregator(seed=3).aggregate(normal_store, rate=0.05).value
        mvb = MeasureBiasedBoundaryAggregator(seed=3).aggregate(normal_store, rate=0.05).value
        truth = normal_store.exact_mean()
        assert truth < mvb < mv

    def test_mv_on_uniform_data_matches_analysis(self):
        """Table VII: MV on Uniform[1,199] lands near 132-133."""
        values = np.random.default_rng(5).uniform(1, 199, size=300_000)
        store = BlockStore.from_array("u", values, block_count=10)
        estimate = MeasureBiasedValueAggregator(seed=5).aggregate(store, rate=0.05)
        assert estimate.value == pytest.approx(133.0, abs=2.0)

    def test_mvb_invalid_boundaries(self):
        with pytest.raises(SamplingError):
            MeasureBiasedBoundaryAggregator(p1=2.0, p2=1.0)


class TestOtherBaselines:
    def test_slev_is_approximately_unbiased(self, normal_store):
        truth = normal_store.exact_mean()
        estimates = [
            SlevAggregator(alpha=0.9, seed=s).aggregate(normal_store, rate=0.01).value
            for s in range(5)
        ]
        assert np.mean(estimates) == pytest.approx(truth, abs=1.0)

    def test_slev_alpha_validation(self):
        with pytest.raises(SamplingError):
            SlevAggregator(alpha=1.5)

    def test_bilevel_reports_block_leverages(self, normal_store):
        estimate = BiLevelAggregator(seed=4).aggregate(normal_store, rate=0.02)
        leverages = estimate.details["block_leverages"]
        assert len(leverages) == normal_store.block_count
        assert sum(leverages) == pytest.approx(1.0, abs=0.01)
        assert estimate.value == pytest.approx(normal_store.exact_mean(), abs=1.0)

    def test_block_level_uses_subset_of_blocks(self, normal_store):
        estimate = BlockLevelAggregator(block_fraction=0.4, seed=4).aggregate(
            normal_store, rate=0.02
        )
        assert len(estimate.details["blocks_used"]) == 4
        assert estimate.value == pytest.approx(normal_store.exact_mean(), abs=1.5)

    def test_error_bounded_stratified(self, normal_store):
        estimate = ErrorBoundedStratifiedAggregator(strata=6, seed=4).aggregate(
            normal_store, rate=0.02
        )
        assert estimate.value == pytest.approx(normal_store.exact_mean(), abs=1.0)
        assert len(estimate.details["allocations"]) == 6

    def test_error_bounded_requires_two_strata(self):
        with pytest.raises(SamplingError):
            ErrorBoundedStratifiedAggregator(strata=1)
