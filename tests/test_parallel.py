"""Determinism regression suite for the partition scan.

The contract under test (:mod:`repro.parallel.seeding`): for a fixed seed,
estimates, CI bounds and sample sizes are **bit-identical** — not merely
close — at the default (inline) parallelism and at parallelism 1, 2 and 4,
for every aggregate type and every sampler.  Worker threads may only change
*when* a partition runs, never *which random stream* it consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.errors import ConfigurationError
from repro.parallel import (
    ScanPool,
    ScanStreams,
    as_seed_sequence,
    reset_shared_scan_pool,
)
from repro.query.engine import AQPEngine
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
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore

#: None is the default: every partition task inline on the caller's thread
PARALLELISM_LEVELS = (None, 1, 2, 4)

#: every sampler of the comparison suite, as zero-argument factories
SAMPLERS = {
    "uniform": UniformAggregator,
    "stratified": StratifiedAggregator,
    "stratified-neyman": lambda: StratifiedAggregator(allocation="neyman"),
    "measure-biased": MeasureBiasedValueAggregator,
    "measure-biased-boundary": MeasureBiasedBoundaryAggregator,
    "slev": SlevAggregator,
    "bilevel": BiLevelAggregator,
    "error-bounded": ErrorBoundedStratifiedAggregator,
    "block-level": BlockLevelAggregator,
}


def drifting_store(rows: int, blocks: int, seed: int, name: str) -> BlockStore:
    """A multi-block table with per-block mean drift (non-trivial to sample)."""
    rng = np.random.default_rng(seed)
    per_block = max(1, rows // blocks)
    arrays = [
        rng.normal(100.0 + 3.0 * index, 20.0, size=per_block)
        for index in range(blocks)
    ]
    return BlockStore.from_block_arrays(name, arrays)


@pytest.fixture(scope="module")
def drift_store():
    """A multi-block table whose blocks have different means (non-i.i.d.)."""
    return drifting_store(12_000, 8, seed=3, name="drift")


@pytest.fixture(scope="module")
def pool():
    with ScanPool(max_workers=4) as shared:
        yield shared


def _draws(generator: np.random.Generator) -> tuple:
    return tuple(generator.integers(0, 2**62, size=4))


class TestSeedContract:
    def test_streams_are_independent_of_worker_count(self):
        # ScanStreams takes no pool/worker information at all: the same key
        # names the same streams, whichever thread realises them.
        first, second = ScanStreams(123, 2), ScanStreams(123, 2)
        assert _draws(first.pre_phase) == _draws(second.pre_phase)
        for partition in range(8):
            for stream in range(2):
                left = _draws(first.generator(partition, stream))
                right = _draws(second.generator(partition, stream))
                assert left == right

    def test_streams_per_partition_are_distinct(self):
        streams = ScanStreams(0, streams_per_partition=2)
        pre_phase = _draws(streams.pre_phase)
        seen = {
            _draws(streams.generator(partition, stream))
            for partition in range(4)
            for stream in range(2)
        }
        assert len(seen) == 8
        assert pre_phase not in seen
        with pytest.raises(ValueError):
            streams.generator(0, 2)

    def test_stream_is_the_key_advanced_by_its_index(self):
        # Partition i, stream s is the scan's base state advanced by
        # (i*S + s) * 2**64 draws past partition 0's stream 0.
        streams = ScanStreams(7, streams_per_partition=3)
        reference = np.random.PCG64(as_seed_sequence(7))
        reference.state = streams.generator(0, 0).bit_generator.state
        reference.advance((2 * 3 + 1) * 2**64)
        expected = _draws(np.random.Generator(reference))
        assert _draws(streams.generator(2, 1)) == expected

    def test_generator_roots_at_its_seed_sequence(self):
        generator = np.random.default_rng(99)
        assert as_seed_sequence(generator).entropy == 99

    def test_seed_sequence_root_never_mutated(self):
        # Keying many scans with the same SeedSequence must not advance its
        # spawn counter — every scan sees the same streams.
        child = np.random.SeedSequence(5).spawn(1)[0]
        first, second = ScanStreams(child), ScanStreams(child)
        assert child.n_children_spawned == 0
        assert _draws(first.generator(3)) == _draws(second.generator(3))
        root = as_seed_sequence(child)
        assert (root.entropy, root.spawn_key) == (child.entropy, child.spawn_key)

    def test_negative_partition_count_rejected(self):
        with pytest.raises(ValueError):
            ScanStreams(0).generator(-1)
        with pytest.raises(ValueError):
            ScanStreams(0, streams_per_partition=0)

    def test_streams_avoid_the_callers_own_generator(self):
        # A caller that seeds data or its own draws with default_rng(seed)
        # must not see a scan keyed by the same seed replay those draws.
        own = _draws(np.random.default_rng(11))
        streams = ScanStreams(11)
        assert own != _draws(streams.pre_phase)
        assert own != _draws(streams.generator(0))


class TestDefaultParallelism:
    def test_env_override_respected(self, monkeypatch):
        from repro.parallel.pool import ENV_PARALLELISM, default_parallelism

        monkeypatch.setenv(ENV_PARALLELISM, "3")
        assert default_parallelism() == 3

    def test_env_override_clamped_to_one(self, monkeypatch):
        from repro.parallel.pool import ENV_PARALLELISM, default_parallelism

        monkeypatch.setenv(ENV_PARALLELISM, "-2")
        assert default_parallelism() == 1

    def test_malformed_env_warns_and_falls_back(self, monkeypatch):
        from repro.parallel.pool import ENV_PARALLELISM, default_parallelism

        monkeypatch.setenv(ENV_PARALLELISM, "four")
        with pytest.warns(RuntimeWarning, match="four"):
            resolved = default_parallelism()
        assert resolved >= 1  # CPU-count fallback, not the typo

    def test_unset_env_is_silent(self, monkeypatch, recwarn):
        from repro.parallel.pool import ENV_PARALLELISM, default_parallelism

        monkeypatch.delenv(ENV_PARALLELISM, raising=False)
        assert default_parallelism() >= 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestScanPool:
    def test_results_keep_partition_order(self):
        with ScanPool(max_workers=4) as pool:
            for parallelism in (1, 2, 3, 4, 9):
                scan = pool.scan_partial(lambda x: x * x, list(range(13)), parallelism)
                assert scan.ok
                assert scan.results == [x * x for x in range(13)]

    def test_parallelism_one_runs_inline(self):
        pool = ScanPool(max_workers=4)
        pool.scan_partial(lambda x: x, [1, 2, 3], 1)
        assert pool._executor is None  # never spun up
        pool.close()

    def test_shared_pool_reset(self):
        from repro.parallel import shared_scan_pool

        reset_shared_scan_pool()
        first = shared_scan_pool()
        assert shared_scan_pool() is first
        reset_shared_scan_pool()
        assert shared_scan_pool() is not first


class TestISLADeterminism:
    @pytest.mark.parametrize("aggregate", ["avg", "sum"])
    def test_bit_identical_across_parallelism(self, drift_store, pool, aggregate):
        config = ISLAConfig(precision=0.5)
        answers = set()
        for parallelism in PARALLELISM_LEVELS:
            aggregator = ISLAAggregator(
                config, seed=11, pool=pool, parallelism=parallelism
            )
            if aggregate == "avg":
                result = aggregator.aggregate_avg(drift_store)
            else:
                result = aggregator.aggregate_sum(drift_store)
            answers.add(
                (result.value, result.interval.low, result.interval.high,
                 result.sample_size)
            )
        assert len(answers) == 1

    def test_accuracy_against_truth(self, drift_store, pool):
        config = ISLAConfig(precision=0.5)
        truth = drift_store.exact_mean()
        result = ISLAAggregator(
            config, seed=11, pool=pool, parallelism=4
        ).aggregate_avg(drift_store)
        assert abs(result.value - truth) <= 2 * config.precision

    def test_seed_sequence_root_accepted(self, drift_store, pool):
        # The serving layer hands per-query SeedSequence children down as
        # scan keys; the two layers must compose deterministically.
        child = np.random.SeedSequence(7).spawn(3)[1]
        values = {
            ISLAAggregator(
                ISLAConfig(precision=0.5), seed=child, pool=pool, parallelism=p
            ).aggregate_avg(drift_store).value
            for p in PARALLELISM_LEVELS
        }
        assert len(values) == 1


class TestBaselineDeterminism:
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_bit_identical_across_parallelism(self, drift_store, pool, name):
        answers = set()
        for parallelism in PARALLELISM_LEVELS:
            estimate = SAMPLERS[name]().aggregate(
                drift_store, rate=0.05, rng=np.random.default_rng(5),
                pool=pool, parallelism=parallelism,
            )
            answers.add((estimate.value, estimate.sample_size))
        assert len(answers) == 1

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_estimates_land_near_truth(self, drift_store, pool, name):
        truth = drift_store.exact_mean()
        estimate = SAMPLERS[name]().aggregate(
            drift_store, rate=0.1, rng=np.random.default_rng(5),
            pool=pool, parallelism=4,
        )
        # MV is intentionally biased to (mu^2 + sigma^2) / mu; every other
        # sampler should land within a loose tolerance of the truth.
        tolerance = 8.0 if name == "measure-biased" else 4.0
        assert abs(estimate.value - truth) <= tolerance

    def test_details_carry_parallelism(self, drift_store, pool):
        estimate = UniformAggregator(seed=5).aggregate(
            drift_store, rate=0.05, pool=pool, parallelism=2
        )
        assert estimate.details["parallelism"] == 2
        assert estimate.details["partitions"] == drift_store.block_count
        default = UniformAggregator(seed=5).aggregate(drift_store, rate=0.05)
        assert default.details["parallelism"] == 1

    def test_precision_target_resolves_deterministically(self, drift_store, pool):
        values = {
            UniformAggregator(seed=5).aggregate(
                drift_store, precision=1.0, pool=pool, parallelism=p
            ).value
            for p in PARALLELISM_LEVELS
        }
        assert len(values) == 1

    def test_aggregate_entry_point_delegates(self, drift_store, pool):
        # The default call and an explicit pool/parallelism run one scan:
        # the seed, not the entry point, decides the answer.
        default = UniformAggregator(seed=5).aggregate(drift_store, rate=0.05)
        explicit = UniformAggregator(seed=5).aggregate(
            drift_store, rate=0.05, pool=pool, parallelism=2
        )
        assert explicit.value == default.value
        assert explicit.sample_size == default.sample_size

    def test_degenerate_rate_raises_same_error_as_serial(self, drift_store, pool):
        # A rate so small every block's share rounds to zero fails with the
        # same exception as BlockStore.uniform_sample, at any parallelism.
        from repro.errors import EmptyDataError

        with pytest.raises(EmptyDataError):
            UniformAggregator(seed=5).aggregate(drift_store, rate=1e-7)
        with pytest.raises(EmptyDataError):
            UniformAggregator(seed=5).aggregate(
                drift_store, rate=1e-7, pool=pool, parallelism=2
            )


class TestExactParallel:
    def test_matches_serial_exact(self, drift_store):
        reset_shared_scan_pool()
        try:
            for parallelism in PARALLELISM_LEVELS:
                engine = AQPEngine(parallelism=parallelism)
                engine.register_store(drift_store)
                result = engine.execute("SELECT AVG(value) FROM drift METHOD EXACT")
                assert result.sample_size == drift_store.total_rows
                assert result.value == pytest.approx(drift_store.exact_mean(), rel=1e-12)
        finally:
            reset_shared_scan_pool()


@dataclass
class _GrowingStore(BlockStore):
    """A table that gains a block the first time a pilot sample is drawn.

    The append lands between a scan's first read of the block list and its
    partition phase — the window a concurrent ``append_array`` can hit.
    Scan snapshots copy these fields, so they share the flag and append to
    the original table.
    """

    table: Optional[BlockStore] = None
    grown: List[bool] = field(default_factory=list)

    def pilot_sample(self, column, sample_size, rng):
        sample = super().pilot_sample(column, sample_size, rng)
        if not self.grown:
            self.grown.append(True)
            self.table.append_block(np.full(500, 100.0))
        return sample


def _growing(name: str) -> BlockStore:
    store = drifting_store(8_000, 4, seed=1, name=name)
    growing = _GrowingStore(name=name, _blocks=list(store.blocks))
    growing.table = growing
    return growing


class TestBlockSnapshot:
    """A scan reads one block list, however the table grows meanwhile."""

    def test_isla_scans_the_blocks_it_pre_estimated(self, pool):
        store = _growing("growing-isla")
        result = ISLAAggregator(
            ISLAConfig(precision=1.0), seed=3, pool=pool, parallelism=2
        ).aggregate_avg(store)
        assert store.block_count == 5  # the append happened mid-scan
        assert len(result.block_results) == 4
        assert result.data_size == 8_000
        assert not result.degraded

    def test_baseline_scans_the_blocks_it_resolved_the_rate_on(self, pool):
        store = _growing("growing-us")
        estimate = UniformAggregator(seed=3).aggregate(
            store, precision=1.0, pool=pool, parallelism=2
        )
        assert store.block_count == 5
        assert estimate.details["partitions"] == 4
        assert "degraded" not in estimate.details


class TestSampleColumn:
    def test_with_replacement_draws_match_choice(self):
        # Block.sample_column draws with-replacement indices with
        # rng.integers; they must be the very indices rng.choice draws.
        for n, k in ((1, 5), (7, 3), (1_000, 250), (2**20 + 3, 64)):
            block = Block.from_values(0, np.arange(n, dtype=float))
            drawn = block.sample_column("value", k, np.random.default_rng(n))
            chosen = np.random.default_rng(n).choice(n, size=k, replace=True)
            assert np.array_equal(drawn, chosen.astype(float))


class TestEngineIntegration:
    def _engine(self, parallelism):
        engine = AQPEngine(seed=21, parallelism=parallelism)
        values = np.random.default_rng(1).normal(100.0, 20.0, size=16_000)
        engine.register_array("readings", values, block_count=8)
        return engine

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT AVG(value) FROM readings PRECISION 0.5",
            "SELECT SUM(value) FROM readings PRECISION 0.5",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD US",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD STS",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD MV",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD MVB",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD SLEV",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD BILEVEL",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD EBS",
            "SELECT AVG(value) FROM readings PRECISION 1.0 METHOD BLOCK",
            "SELECT AVG(value) FROM readings METHOD EXACT",
        ],
    )
    def test_engine_answers_identical_across_parallelism(self, statement):
        reset_shared_scan_pool()
        try:
            answers = {
                self._engine(parallelism).execute(statement).value
                for parallelism in PARALLELISM_LEVELS
            }
            assert len(answers) == 1
        finally:
            reset_shared_scan_pool()

    def test_default_engine_scans_inline(self):
        result = self._engine(None).execute(
            "SELECT AVG(value) FROM readings PRECISION 0.5"
        )
        assert result.details["parallelism"] == 1
        assert result.details["partitions"] == 8

    def test_config_rejects_non_positive_parallelism(self):
        with pytest.raises(ConfigurationError):
            ISLAConfig(parallelism=0)
