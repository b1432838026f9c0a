"""The serving stack under injected partition failures and stragglers.

A concurrent workload runs through :class:`~repro.serve.QueryService` with
the cache and the circuit breaker off, so every query executes and every raw
failure counts.  Without faults every answer is complete; under a fault plan
every outcome stays typed, every degraded answer stays honest and no worker
hangs.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.parallel import reset_shared_scan_pool
from repro.query.engine import AQPEngine
from repro.serve import ServeConfig

TABLES = ("orders", "sensors", "trips")
WORKERS = 4
STATEMENTS = [
    f"SELECT AVG(value) FROM {TABLES[index % 3]} "
    f"PRECISION {(0.5, 0.8, 1.0)[index % 3]} CONFIDENCE 0.95"
    for index in range(45)
]


@pytest.fixture(autouse=True)
def _fresh_faults_and_pool():
    faults.clear()
    reset_shared_scan_pool()
    yield
    faults.clear()


def _serve(plan=None):
    """Run the workload; returns its outcomes and the service's health."""
    engine = AQPEngine(seed=0, parallelism=4)
    rng = np.random.default_rng(0)
    for index, table in enumerate(TABLES):
        values = rng.normal(100.0 + 25.0 * index, 15.0, size=16_000)
        engine.register_array(table, values, block_count=8)
    config = ServeConfig(
        workers=WORKERS,
        max_queue=max(64, len(STATEMENTS)),
        cache_enabled=False,
        breaker_enabled=False,
    )
    with fault_scope(plan) if plan is not None else nullcontext():
        with engine.serve(config=config) as service:
            outcomes = service.execute_many(STATEMENTS, timeout=120.0)
            health = service.health()
    return outcomes, health


def test_clean_workload_is_fully_answered():
    outcomes, _ = _serve()
    assert len(outcomes) == len(STATEMENTS)
    assert all(outcome.status == "ok" for outcome in outcomes)
    assert not any(outcome.result.degraded for outcome in outcomes)


def test_partition_faults_degrade_honestly_without_hangs():
    plan = FaultPlan(
        seed=1,
        specs=(
            FaultSpec(site="scan.partition", rate=0.25),
            FaultSpec(site="scan.straggler", rate=0.1, delay_ms=20.0, once_per_key=True),
        ),
    )
    outcomes, health = _serve(plan)

    assert len(outcomes) == len(STATEMENTS)
    assert health["workers_alive"] == WORKERS
    # every outcome is typed: an answer, a typed error or a typed rejection
    for outcome in outcomes:
        if outcome.status == "failed":
            assert outcome.error is not None
        elif outcome.status == "rejected":
            assert outcome.rejection is not None
        else:
            assert outcome.status == "ok" and outcome.result is not None

    degraded = [
        outcome.result
        for outcome in outcomes
        if outcome.status == "ok" and outcome.result.degraded
    ]
    assert degraded
    for result in degraded:
        assert result.failed_partitions
        assert 0.0 < result.sample_fraction < 1.0
        # the widened interval is never narrower than the one requested
        details = result.details
        radius = (details["interval_high"] - details["interval_low"]) / 2.0
        assert radius >= details["precision"] * 0.999
