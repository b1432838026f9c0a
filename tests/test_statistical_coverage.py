"""Property-based statistical tests: empirical CI coverage, inline vs sharded.

The system's contract is statistical: an answer with ``PRECISION e
CONFIDENCE beta`` must land within ``e`` of the truth in at least a
``beta`` fraction of runs.  These tests measure that fraction empirically
over a seeded grid of synthetic tables and precisions (>= 200 independent
trials per case, no external property-testing dependency) and assert it
stays within the statistical allowance of ``beta`` — for the default scan,
whose partition tasks run inline, and for a scan sharded across the pool,
which must obey the *same* distribution because parallelism only
re-schedules identical random streams (see :mod:`repro.parallel.seeding`).

The allowance is the normal-approximation noise of a coverage proportion:
``beta - 4 * sqrt(beta * (1 - beta) / trials)`` — about 0.089 below beta
at beta=0.95 and 200 trials, so a real coverage regression fails while
honest sampling noise does not.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.parallel import ScanPool
from repro.sampling import UniformAggregator
from repro.storage.blockstore import BlockStore

TRIALS = 200

#: seeded grid of (table seed, mean, std, precision) cases
GRID = [
    (11, 100.0, 20.0, 1.0),
    (23, 50.0, 5.0, 0.4),
    (37, -30.0, 10.0, 0.8),  # negative data exercises the translation offset
]


def _allowed(confidence: float, trials: int) -> float:
    return confidence - 4.0 * math.sqrt(confidence * (1.0 - confidence) / trials)


def _store(seed: int, mean: float, std: float) -> BlockStore:
    values = np.random.default_rng(seed).normal(mean, std, size=6_000)
    return BlockStore.from_array(f"cov{seed}", values, block_count=4)


def _coverage(run_trial, truth: float, precision: float) -> float:
    within = sum(
        1 for trial in range(TRIALS) if abs(run_trial(trial) - truth) <= precision
    )
    return within / TRIALS


@pytest.fixture(scope="module")
def pool():
    with ScanPool(max_workers=4) as shared:
        yield shared


class TestISLACoverage:
    @pytest.mark.parametrize("table_seed,mean,std,precision", GRID)
    def test_serial_coverage_meets_confidence(self, table_seed, mean, std, precision):
        store = _store(table_seed, mean, std)
        truth = store.exact_mean()
        config = ISLAConfig(
            precision=precision, confidence=0.95, pilot_sample_size=300
        )

        def run_trial(trial: int) -> float:
            return ISLAAggregator(config, seed=trial).aggregate_avg(store).value

        assert _coverage(run_trial, truth, precision) >= _allowed(0.95, TRIALS)

    @pytest.mark.parametrize("table_seed,mean,std,precision", GRID)
    def test_parallel_coverage_meets_confidence(
        self, pool, table_seed, mean, std, precision
    ):
        store = _store(table_seed, mean, std)
        truth = store.exact_mean()
        config = ISLAConfig(
            precision=precision, confidence=0.95, pilot_sample_size=300
        )

        def run_trial(trial: int) -> float:
            return (
                ISLAAggregator(
                    config, seed=trial, pool=pool, parallelism=2
                )
                .aggregate_avg(store)
                .value
            )

        assert _coverage(run_trial, truth, precision) >= _allowed(0.95, TRIALS)

    def test_serial_and_parallel_draw_identical_samples(self, pool):
        # Stronger than equal coverage: at parallelism 1 the partition
        # backend must reproduce its own streams run-for-run, and the
        # per-trial answers of parallelism 1 and 4 must agree exactly,
        # so both paths share one sampling distribution by construction.
        store = _store(3, 100.0, 20.0)
        config = ISLAConfig(precision=1.0, confidence=0.95, pilot_sample_size=300)
        for trial in range(25):
            narrow = ISLAAggregator(
                config, seed=trial, pool=pool, parallelism=1
            ).aggregate_avg(store)
            wide = ISLAAggregator(
                config, seed=trial, pool=pool, parallelism=4
            ).aggregate_avg(store)
            assert narrow.value == wide.value
            assert narrow.sample_size == wide.sample_size


class TestBaselineCoverage:
    def test_uniform_precision_target_coverage(self, pool):
        # The Eq.-1 rate derivation must deliver its promised coverage
        # through the parallel kernel as well.
        store = _store(51, 80.0, 12.0)
        truth = store.exact_mean()
        precision, confidence = 0.8, 0.95

        def run_trial(trial: int) -> float:
            return (
                UniformAggregator()
                .aggregate(
                    store,
                    precision=precision,
                    confidence=confidence,
                    parallelism=2,
                    pool=pool,
                    rng=np.random.default_rng(trial),
                )
                .value
            )

        assert _coverage(run_trial, truth, precision) >= _allowed(confidence, TRIALS)
