"""The fault-injection framework and degraded-mode execution."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import faults
from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator, degraded_radius
from repro.errors import ConfigurationError, InjectedFault, PartialResultError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.parallel import ScanPool
from repro.query.engine import AQPEngine
from repro.sampling import UniformAggregator
from repro.serve import CircuitBreaker, ServeConfig
from repro.storage.blockstore import BlockStore


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Every test starts and ends with fault injection off."""
    faults.clear()
    yield
    faults.clear()


def _store(name: str = "chaos", rows: int = 40_000, blocks: int = 8) -> BlockStore:
    values = np.random.default_rng(11).normal(100.0, 15.0, size=rows)
    return BlockStore.from_array(name, values, block_count=blocks)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultSpec(site="scan.nope")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultSpec(site="scan.partition", rate=1.5)

    def test_roundtrips_through_json(self):
        plan = FaultPlan(
            seed=9,
            specs=(
                FaultSpec(site="scan.partition", rate=0.25, tables=("T",)),
                FaultSpec(site="scan.straggler", delay_ms=5.0, once_per_key=True),
            ),
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.sites == ("scan.partition", "scan.straggler")

    def test_from_env_inline_json(self, monkeypatch):
        plan = FaultPlan(seed=3, specs=(FaultSpec(site="wal.torn_frame", rate=0.5),))
        monkeypatch.setenv(faults.plan.ENV_FAULTS, plan.to_json())
        assert FaultPlan.from_env() == plan

    def test_from_env_file_path(self, monkeypatch, tmp_path):
        plan = FaultPlan(seed=4, specs=(FaultSpec(site="block.bitflip", rate=0.1),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(faults.plan.ENV_FAULTS, str(path))
        assert FaultPlan.from_env() == plan

    def test_from_env_malformed_raises(self, monkeypatch):
        monkeypatch.setenv(faults.plan.ENV_FAULTS, "{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_env()

    def test_from_env_missing_file_raises(self, monkeypatch):
        monkeypatch.setenv(faults.plan.ENV_FAULTS, "/no/such/plan.json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_env()

    def test_env_activates_injector(self, monkeypatch):
        plan = FaultPlan(seed=1, specs=(FaultSpec(site="scan.partition"),))
        monkeypatch.setenv(faults.plan.ENV_FAULTS, plan.to_json())
        faults.reset_env_cache()
        injector = faults.active()
        assert injector is not None
        assert injector.plan == plan


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=42, specs=(FaultSpec(site="scan.partition", rate=0.3),))
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        keys = range(200)
        assert [first.would_fire("scan.partition", "t", k) for k in keys] == [
            second.would_fire("scan.partition", "t", k) for k in keys
        ]

    def test_rate_controls_fire_fraction(self):
        plan = FaultPlan(seed=5, specs=(FaultSpec(site="scan.partition", rate=0.25),))
        injector = FaultInjector(plan)
        fired = sum(
            injector.would_fire("scan.partition", "t", key) for key in range(2000)
        )
        assert 0.18 < fired / 2000 < 0.32

    def test_spec_scoping_by_table_and_key(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="scan.partition", tables=("a",), keys=(1, 2)),),
        )
        injector = FaultInjector(plan)
        assert injector.would_fire("scan.partition", "A", 1)
        assert not injector.would_fire("scan.partition", "b", 1)
        assert not injector.would_fire("scan.partition", "a", 3)

    def test_once_per_key_fires_once(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", once_per_key=True),)
        )
        injector = FaultInjector(plan)
        assert injector.draw("scan.partition", "t", 7) is not None
        assert injector.draw("scan.partition", "t", 7) is None
        assert injector.draw("scan.partition", "t", 8) is not None

    def test_max_hits_caps_total_fires(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", max_hits=3),)
        )
        injector = FaultInjector(plan)
        fired = sum(
            injector.draw("scan.partition", "t", key) is not None for key in range(10)
        )
        assert fired == 3
        assert injector.stats() == {"scan.partition": 3}

    def test_partition_scan_raises_injected_fault(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="scan.partition"),))
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault) as excinfo:
            injector.partition_scan("t", 0)
        assert excinfo.value.site == "scan.partition"

    def test_straggler_sleeps_for_delay(self):
        slept = []
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.straggler", delay_ms=25.0),)
        )
        injector = FaultInjector(plan, sleep=slept.append)
        injector.partition_scan("t", 0)
        assert slept == [0.025]

    def test_fault_scope_restores_previous_state(self):
        assert faults.active() is None
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="scan.partition"),))
        with fault_scope(plan) as injector:
            assert faults.active() is injector
        assert faults.active() is None


# ---------------------------------------------------------------------------
# degraded scans
# ---------------------------------------------------------------------------


class TestDegradedScan:
    def test_partial_scan_captures_failures(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(2, 5)),)
        )
        with ScanPool(max_workers=4) as pool, fault_scope(plan):
            scan = pool.scan_partial(
                lambda x: x * 10,
                list(range(8)),
                parallelism=4,
                table="t",
                keys=list(range(8)),
            )
        assert not scan.ok
        assert scan.failed_keys == [2, 5]
        assert all(failure.injected for failure in scan.failures)
        assert scan.completed() == [0, 10, 30, 40, 60, 70]

    def test_failures_identical_at_any_parallelism(self):
        plan = FaultPlan(
            seed=21, specs=(FaultSpec(site="scan.partition", rate=0.4),)
        )
        outcomes = []
        for parallelism in (1, 2, 4):
            with ScanPool(max_workers=4) as pool, fault_scope(plan):
                scan = pool.scan_partial(
                    lambda x: x,
                    list(range(12)),
                    parallelism=parallelism,
                    table="t",
                    keys=list(range(12)),
                )
            outcomes.append((scan.failed_keys, scan.completed()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_non_injected_exceptions_are_captured_too(self):
        def explode(x):
            if x == 3:
                raise ValueError("boom")
            return x

        with ScanPool(max_workers=2) as pool:
            scan = pool.scan_partial(explode, list(range(6)), parallelism=2)
        assert scan.failed_indices == [3]
        assert not scan.failures[0].injected
        assert isinstance(scan.failures[0].error, ValueError)

    def test_clean_scan_matches_the_inline_scan(self):
        items = list(range(16))
        with ScanPool(max_workers=4) as pool:
            inline = pool.scan_partial(lambda x: x * x, items, parallelism=1)
            scan = pool.scan_partial(lambda x: x * x, items, parallelism=4)
        assert inline.ok and scan.ok
        assert scan.results == inline.results == [x * x for x in items]


class TestStragglerSpeculation:
    def test_speculation_rescues_transient_straggler(self):
        # once_per_key: the first attempt straggles, the speculative
        # duplicate does not — the scan finishes fast with full results
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    site="scan.straggler",
                    keys=(1,),
                    delay_ms=2_000.0,
                    once_per_key=True,
                ),
            ),
        )
        with ScanPool(max_workers=4) as pool, fault_scope(plan):
            scan = pool.scan_partial(
                lambda x: x + 1,
                list(range(4)),
                parallelism=4,
                table="t",
                keys=list(range(4)),
                straggler_timeout=0.05,
            )
        assert scan.ok
        assert scan.speculated >= 1
        assert scan.results == [1, 2, 3, 4]

    def test_no_speculation_before_deadline(self):
        with ScanPool(max_workers=4) as pool:
            scan = pool.scan_partial(
                lambda x: x,
                list(range(4)),
                parallelism=4,
                straggler_timeout=30.0,
            )
        assert scan.ok
        assert scan.speculated == 0


# ---------------------------------------------------------------------------
# degraded aggregation: re-weighting + widened CIs
# ---------------------------------------------------------------------------


class TestDegradedAggregation:
    def test_degraded_radius_widens_by_lost_fraction(self):
        assert degraded_radius(0.5, 1000, 1000) == pytest.approx(0.5)
        assert degraded_radius(0.5, 1000, 250) == pytest.approx(1.0)
        with pytest.raises(PartialResultError):
            degraded_radius(0.5, 1000, 0)

    def test_isla_survives_partition_failures(self):
        store = _store()
        truth = store.exact_mean()
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(1, 6)),)
        )
        config = ISLAConfig(precision=0.5, parallelism=4)
        with fault_scope(plan):
            result = ISLAAggregator(config, seed=77).aggregate_avg(store)
        assert result.degraded
        assert result.failed_partitions == (1, 6)
        assert result.sample_fraction == pytest.approx(6 / 8)
        # the CI widened to pay for the lost samples, same confidence
        assert result.interval.radius > config.precision
        assert result.interval.confidence == config.confidence
        assert abs(result.value - truth) < 2.0

    def test_isla_degraded_answer_is_deterministic(self):
        store = _store()
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", rate=0.3),)
        )
        config = ISLAConfig(precision=0.5, parallelism=4)
        answers = []
        for _ in range(2):
            with fault_scope(FaultInjector(plan)):
                result = ISLAAggregator(config, seed=5).aggregate_avg(
                    store
                )
            answers.append((result.value, result.failed_partitions))
        assert answers[0] == answers[1]

    def test_degraded_sum_widens_with_the_avg_interval(self):
        store = _store()
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(0, 2, 4, 6)),)
        )
        config = ISLAConfig(precision=0.5)
        with fault_scope(plan):
            avg = ISLAAggregator(config, seed=3).aggregate_avg(store)
            total = ISLAAggregator(config, seed=3).aggregate_sum(store)
        assert avg.degraded and total.degraded
        assert total.failed_partitions == avg.failed_partitions == (0, 2, 4, 6)
        assert avg.interval.radius > config.precision
        assert total.value == avg.value * store.total_rows
        assert total.interval.radius == pytest.approx(
            avg.interval.radius * store.total_rows
        )

    def test_timed_query_reports_its_degraded_scan(self):
        engine = AQPEngine(seed=13)
        engine.register_store(_store("timed"))
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(2, 5)),)
        )
        with fault_scope(plan):
            result = engine.execute(
                "SELECT AVG(value) FROM timed PRECISION 0.5 TIME 5000"
            )
        assert result.method == "ISLA-timed"
        assert result.degraded
        assert result.failed_partitions == (2, 5)
        assert result.sample_fraction == pytest.approx(6 / 8)
        assert result.raw.degraded and result.raw.failed_partitions == (2, 5)

    def test_isla_all_partitions_failed_raises_typed_error(self):
        store = _store()
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="scan.partition"),))
        config = ISLAConfig(precision=0.5, parallelism=4)
        with fault_scope(plan):
            with pytest.raises(PartialResultError):
                ISLAAggregator(config, seed=1).aggregate_avg(store)

    def test_baseline_survives_partition_failures(self):
        store = _store()
        truth = store.exact_mean()
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(0, 3)),)
        )
        with fault_scope(plan):
            estimate = UniformAggregator(seed=9).aggregate(
                store, precision=0.5, confidence=0.95, parallelism=4
            )
        assert estimate.details["degraded"] is True
        assert estimate.details["failed_partitions"] == [0, 3]
        assert estimate.details["sample_fraction"] == pytest.approx(6 / 8)
        assert abs(estimate.value - truth) < 2.0

    def test_engine_tags_degraded_results(self):
        store = _store("sensor")
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(2,)),)
        )
        engine = AQPEngine(seed=13, parallelism=4)
        engine.register_store(store)
        with fault_scope(plan):
            result = engine.execute(
                "SELECT AVG(value) FROM sensor PRECISION 0.5"
            )
        assert result.degraded
        assert result.failed_partitions == (2,)
        assert 0.0 < result.sample_fraction < 1.0
        assert result.details["degraded"] is True

    @pytest.mark.parametrize("parallelism", [None, 4])
    def test_exact_answers_over_the_surviving_rows(self, parallelism):
        store = _store("full")
        engine = AQPEngine(seed=13, parallelism=parallelism)
        engine.register_store(store)
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(2, 5)),)
        )
        survivors = [block for block in store.blocks if block.block_id not in (2, 5)]
        rows = sum(block.size for block in survivors)
        avg = sum(float(block.column("value").sum()) for block in survivors) / rows
        with fault_scope(plan):
            mean = engine.execute("SELECT AVG(value) FROM full METHOD EXACT")
            total = engine.execute("SELECT SUM(value) FROM full METHOD EXACT")
        for result in (mean, total):
            assert result.degraded
            assert result.failed_partitions == (2, 5)
            assert result.sample_size == rows
            assert result.sample_fraction == pytest.approx(6 / 8)
        assert mean.value == avg
        assert total.value == avg * store.total_rows

    def test_exact_with_every_partition_failed_raises_typed_error(self):
        engine = AQPEngine(seed=13)
        engine.register_store(_store("lost"))
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="scan.partition"),))
        with fault_scope(plan):
            with pytest.raises(PartialResultError):
                engine.execute("SELECT AVG(value) FROM lost METHOD EXACT")

    @pytest.mark.parametrize("method", ["ISLA", "US", "EXACT"])
    def test_default_engine_degrades_too(self, method):
        # No parallelism set: the partition tasks run inline on the caller's
        # thread, through the same fault sites as a sharded scan.
        engine = AQPEngine(seed=13)
        engine.register_store(_store("inline"))
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="scan.partition", keys=(2,)),)
        )
        with fault_scope(plan):
            result = engine.execute(
                f"SELECT AVG(value) FROM inline PRECISION 0.5 METHOD {method}"
            )
        assert result.degraded
        assert result.failed_partitions == (2,)
        assert result.sample_fraction == pytest.approx(7 / 8)

    def test_no_faults_means_no_degradation(self):
        store = _store("clean")
        engine = AQPEngine(seed=13, parallelism=4)
        engine.register_store(store)
        result = engine.execute("SELECT AVG(value) FROM clean PRECISION 0.5")
        assert not result.degraded
        assert result.failed_partitions == ()
        assert result.sample_fraction == 1.0


# ---------------------------------------------------------------------------
# the circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        defaults = dict(
            failure_threshold=0.5,
            window=8,
            min_requests=4,
            cooldown_seconds=10.0,
            half_open_probes=2,
            clock=clock,
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_trips_after_failure_rate_crossed(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_below_min_requests_never_trips(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_half_open_then_closes_on_probe_success(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 11.0
        assert breaker.state == "half_open"
        assert breaker.allow() and breaker.allow()  # two probes
        assert not breaker.allow()  # probes exhausted
        breaker.record_success()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_successes_keep_circuit_closed(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(50):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.stats()["trips"] == 0


# ---------------------------------------------------------------------------
# serving under chaos
# ---------------------------------------------------------------------------


class TestServiceDegradedMode:
    def _engine(self, name: str = "served") -> AQPEngine:
        engine = AQPEngine(seed=3, parallelism=2)
        engine.register_store(_store(name))
        return engine

    def test_degraded_answers_are_not_cached(self):
        engine = self._engine()
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="scan.partition", keys=(4,)),),
        )
        config = ServeConfig(workers=2, breaker_enabled=False)
        with fault_scope(plan):
            with engine.serve(config=config) as service:
                statement = "SELECT AVG(value) FROM served PRECISION 0.5"
                first = service.submit(statement).outcome()
                second = service.submit(statement).outcome()
        assert first.ok and first.result.degraded
        assert second.ok and second.result.degraded
        # neither answer came from the cache: degraded results never enter it
        assert not first.cache_hit and not second.cache_hit
        stats = service.stats()
        assert stats["degraded"] == 2

    def test_breaker_opens_on_persistent_failure(self):
        engine = self._engine("flaky")
        # every partition fails -> every execution raises PartialResultError
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="scan.partition"),))
        config = ServeConfig(
            workers=1,
            breaker_failure_threshold=0.5,
            breaker_window=8,
            breaker_min_requests=3,
            breaker_cooldown_seconds=60.0,
        )
        statement = "SELECT AVG(value) FROM flaky PRECISION 0.5"
        with fault_scope(plan):
            with engine.serve(config=config) as service:
                outcomes = [service.submit(statement).outcome() for _ in range(8)]
                health = service.health()
                stats = service.stats()
        statuses = [outcome.status for outcome in outcomes]
        assert "failed" in statuses
        assert "rejected" in statuses
        rejections = [
            outcome.rejection.reason
            for outcome in outcomes
            if outcome.status == "rejected"
        ]
        assert set(rejections) == {"circuit_open"}
        assert health["status"] == "degraded"
        assert health["tripped_tables"] == ["flaky"]
        assert stats["rejected"]["circuit_open"] == len(rejections)

    def test_stats_snapshot_has_typed_rejection_reasons(self):
        engine = self._engine("quiet")
        with engine.serve(config=ServeConfig(workers=1)) as service:
            service.submit("SELECT AVG(value) FROM quiet PRECISION 0.5").outcome()
            stats = service.stats()
        assert stats["rejected"] == {
            "queue_full": 0,
            "deadline": 0,
            "circuit_open": 0,
        }
        # legacy flat keys stay present for existing dashboards
        assert stats["rejected_queue_full"] == 0
        assert stats["shed_deadline"] == 0

    def test_health_ok_when_idle(self):
        engine = self._engine("idle")
        with engine.serve(config=ServeConfig(workers=1)) as service:
            health = service.health()
            assert health["status"] == "ok"
            assert health["workers_alive"] == 1
        assert service.health()["status"] == "closed"
