"""Statistical validity of degraded-mode answers.

The acceptance contract of degraded execution: under an injected
partition-failure rate up to 0.25, an answer re-estimated from the
surviving partitions with its widened confidence interval must still cover
the truth at the nominal confidence.  This holds because partitions are
lost independently of the data they hold (the fault draw hashes the block
id, not the values — missing-at-random), so the survivor-weighted estimate
stays unbiased, and the interval widens by ``sqrt(planned / surviving)``
exactly as Definition 1 prescribes for the smaller effective sample.

Each trial uses its own fresh injector (hit accounting reset) and its own
aggregation seed; the fault plan's *seed varies per trial* too, so the set
of lost partitions varies across trials instead of pinning the same blocks
every time.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.parallel import ScanPool
from repro.sampling import UniformAggregator
from repro.storage.blockstore import BlockStore

TRIALS = 200
FAILURE_RATE = 0.25
CONFIDENCE = 0.95


def _allowed(confidence: float, trials: int) -> float:
    return confidence - 4.0 * math.sqrt(confidence * (1.0 - confidence) / trials)


@pytest.fixture(scope="module")
def pool():
    with ScanPool(max_workers=4) as shared:
        yield shared


@pytest.fixture(scope="module")
def store() -> BlockStore:
    values = np.random.default_rng(19).normal(75.0, 15.0, size=8_000)
    return BlockStore.from_array("degraded-cov", values, block_count=8)


def _plan(trial: int) -> FaultPlan:
    return FaultPlan(
        seed=trial,
        specs=(FaultSpec(site="scan.partition", rate=FAILURE_RATE),),
    )


class TestDegradedCoverage:
    def test_isla_degraded_interval_keeps_nominal_coverage(self, pool, store):
        truth = store.exact_mean()
        config = ISLAConfig(
            precision=0.8, confidence=CONFIDENCE, pilot_sample_size=300
        )

        covered = 0
        degraded_trials = 0
        for trial in range(TRIALS):
            with fault_scope(FaultInjector(_plan(trial))):
                try:
                    result = ISLAAggregator(
                        config, seed=trial, pool=pool, parallelism=4
                    ).aggregate_avg(store)
                except Exception:
                    # all 8 partitions lost (p = 0.25^8); skip, don't count
                    continue
            degraded_trials += int(result.degraded)
            if result.interval.contains(truth):
                covered += 1

        # at rate 0.25 over 8 blocks, ~90% of trials lose >= 1 partition
        assert degraded_trials >= TRIALS // 2
        assert covered / TRIALS >= _allowed(CONFIDENCE, TRIALS)

    def test_widened_interval_is_wider_than_requested(self, pool, store):
        config = ISLAConfig(
            precision=0.8, confidence=CONFIDENCE, pilot_sample_size=300
        )
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(site="scan.partition", keys=(0, 1, 2)),)
        )
        with fault_scope(FaultInjector(plan)):
            result = ISLAAggregator(
                config, seed=7, pool=pool, parallelism=4
            ).aggregate_avg(store)
        assert result.degraded
        # 5 of 8 partitions survive: radius grows by ~sqrt(8/5)
        assert result.interval.radius == pytest.approx(
            config.precision * math.sqrt(8.0 / 5.0), rel=0.05
        )
        assert result.interval.confidence == CONFIDENCE

    def test_baseline_degraded_estimates_stay_unbiased(self, pool, store):
        truth = store.exact_mean()
        precision = 0.8

        errors = []
        for trial in range(60):
            with fault_scope(FaultInjector(_plan(trial))):
                try:
                    estimate = UniformAggregator().aggregate(
                        store,
                        precision=precision,
                        confidence=CONFIDENCE,
                        parallelism=4,
                        pool=pool,
                        rng=np.random.default_rng(trial),
                    )
                except Exception:
                    continue
            errors.append(estimate.value - truth)

        assert len(errors) >= 50
        # unbiasedness: the mean signed error is far below the precision
        assert abs(float(np.mean(errors))) < precision / 2.0
