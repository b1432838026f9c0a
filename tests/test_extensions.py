"""Tests for the Section VII extensions."""

import numpy as np
import pytest

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.errors import EstimationError, TimeBudgetExceeded
from repro.extensions.extreme import ExtremeValueAggregator
from repro.extensions.noniid import NonIIDAggregator
from repro.extensions.online import OnlineAggregator
from repro.extensions.time_constraint import TimeConstrainedAggregator
from repro.parallel import ScanPool
from repro.workloads.noniid import NonIIDWorkload


class TestOnlineAggregation:
    def test_refinement_accumulates_samples(self, normal_store):
        config = ISLAConfig(precision=0.5)
        online = OnlineAggregator(config, seed=17)
        first = online.start(normal_store, initial_rate=0.01)
        second = online.refine(additional_rate=0.01)
        third = online.refine(additional_rate=0.01)
        assert first.sample_size < second.sample_size < third.sample_size
        assert online.state.rounds == 3
        truth = normal_store.exact_mean()
        assert third.error_against(truth) <= 2 * config.precision

    def test_later_rounds_reuse_previous_state(self, normal_store):
        online = OnlineAggregator(ISLAConfig(precision=0.5), seed=17)
        online.start(normal_store, initial_rate=0.01)
        counts_before = {
            bid: m.count for bid, m in online.state.param_s.items()
        }
        online.refine(additional_rate=0.01)
        for block_id, before in counts_before.items():
            assert online.state.param_s[block_id].count >= before

    def test_refine_before_start_rejected(self, normal_store):
        online = OnlineAggregator(ISLAConfig(), seed=1)
        with pytest.raises(EstimationError):
            online.refine(0.01)

    def test_non_positive_rate_rejected(self, normal_store):
        online = OnlineAggregator(ISLAConfig(precision=0.5), seed=1)
        online.start(normal_store, initial_rate=0.01)
        with pytest.raises(EstimationError):
            online.refine(0.0)

    def test_ingest_appends_block_and_touches_catalog(self):
        from repro.storage.blockstore import BlockStore
        from repro.storage.catalog import Catalog

        rng = np.random.default_rng(5)
        store = BlockStore.from_array("stream", rng.normal(100.0, 20.0, 50_000),
                                      block_count=5)
        catalog = Catalog()
        catalog.register(store)
        online = OnlineAggregator(ISLAConfig(precision=0.5), seed=17)
        online.start(store, initial_rate=0.05)

        block_id = online.ingest(rng.normal(100.0, 20.0, 10_000), catalog=catalog)
        assert block_id == 5
        assert store.block_count == 6
        assert catalog.version("stream") == 2  # register + touch

        refined = online.refine(additional_rate=0.05)
        # the appended block participates in the refined answer
        assert online.state.samples_drawn[block_id] > 0
        assert refined.error_against(store.exact_mean()) <= 1.0

    def test_ingest_before_start_rejected(self):
        online = OnlineAggregator(ISLAConfig(), seed=1)
        with pytest.raises(EstimationError):
            online.ingest([1.0, 2.0])


class TestNonIIDAggregation:
    def test_paper_setup_meets_precision(self):
        workload = NonIIDWorkload.paper_blocks(rows_per_block=40_000)
        store = workload.generate_store(seed=2)
        config = ISLAConfig(precision=0.5)
        result = NonIIDAggregator(config, seed=2).aggregate_avg(store)
        assert result.method == "ISLA-noniid"
        assert abs(result.value - workload.true_mean()) <= 2 * config.precision

    def test_beats_global_boundaries_on_heterogeneous_blocks(self):
        workload = NonIIDWorkload.paper_blocks(rows_per_block=40_000)
        store = workload.generate_store(seed=3)
        config = ISLAConfig(precision=0.5)
        truth = workload.true_mean()
        noniid_error = abs(NonIIDAggregator(config, seed=3).aggregate_avg(store).value - truth)
        global_error = abs(ISLAAggregator(config, seed=3).aggregate_avg(store).value - truth)
        assert noniid_error <= global_error + 0.5


class TestParallelExecution:
    """Section VII-E: per-block partial answers computed on a thread pool."""

    def test_matches_sequential_quality(self, normal_store):
        config = ISLAConfig(precision=0.5)
        truth = normal_store.exact_mean()
        with ScanPool(max_workers=4) as pool:
            result = ISLAAggregator(
                config, seed=6, pool=pool, parallelism=4
            ).aggregate_avg(normal_store)
        assert result.method == "ISLA"
        assert len(result.block_results) == normal_store.block_count
        assert result.error_against(truth) <= 2 * config.precision

    def test_deterministic_given_seed(self, normal_store):
        config = ISLAConfig(precision=0.5)
        with ScanPool(max_workers=3) as pool:
            first, second = (
                ISLAAggregator(config, seed=9, pool=pool, parallelism=3).aggregate_avg(
                    normal_store
                )
                for _ in range(2)
            )
        assert first.value == second.value


class TestExtremeValues:
    def test_max_and_min_bracket_the_truth(self, normal_store):
        aggregator = ExtremeValueAggregator(base_rate=0.2, seed=4)
        column = normal_store.full_column()
        max_result = aggregator.aggregate_max(normal_store)
        min_result = aggregator.aggregate_min(normal_store)
        assert max_result.kind == "max" and min_result.kind == "min"
        assert max_result.value <= column.max()
        assert min_result.value >= column.min()
        # With a 20% sampling rate the sampled extreme should be close.
        assert max_result.value >= np.percentile(column, 99.5)
        assert min_result.value <= np.percentile(column, 0.5)

    def test_reports_per_block_diagnostics(self, normal_store):
        result = ExtremeValueAggregator(base_rate=0.05, seed=4).aggregate_max(normal_store)
        assert len(result.per_block_extremes) == normal_store.block_count
        assert len(result.per_block_rates) == normal_store.block_count

    def test_invalid_base_rate(self):
        with pytest.raises(EstimationError):
            ExtremeValueAggregator(base_rate=0.0)


class TestTimeConstrained:
    def test_answers_within_generous_budget(self, normal_store):
        config = ISLAConfig(precision=0.5)
        result = TimeConstrainedAggregator(config, seed=2).aggregate_within(
            normal_store, budget_seconds=5.0
        )
        assert result.method == "ISLA-timed"
        assert result.error_against(normal_store.exact_mean()) <= 1.0
        assert result.elapsed_seconds < 5.0

    def test_impossible_budget_raises(self, normal_store):
        config = ISLAConfig(precision=0.5)
        with pytest.raises(TimeBudgetExceeded):
            TimeConstrainedAggregator(config, seed=2).aggregate_within(
                normal_store, budget_seconds=-1.0
            )
