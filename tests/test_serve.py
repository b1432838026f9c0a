"""Tests for the query-serving subsystem (worker pool, admission, cache)."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejected,
    EstimationError,
    ServiceClosed,
    UnknownTableError,
)
from repro.query.ast import CacheSignature
from repro.query.engine import AQPEngine
from repro.serve import (
    AdmissionController,
    CacheKey,
    QueryService,
    ResultCache,
    ServeConfig,
)
from repro.serve.cache import achieved_bound
from repro.storage.catalog import Catalog


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def make_engine(seed: int = 42, rows: int = 30_000, tables: int = 1) -> AQPEngine:
    engine = AQPEngine(seed=seed)
    rng = np.random.default_rng(seed)
    for index in range(tables):
        engine.register_array(
            f"t{index}", rng.normal(100.0, 20.0, rows), block_count=8
        )
    return engine


def make_key(engine: AQPEngine, statement: str) -> CacheKey:
    plan = engine.plan(statement)
    return CacheKey.from_plan(plan, engine.catalog.version(plan.store.name))


STMT = "SELECT AVG(value) FROM t0 PRECISION {p:g} CONFIDENCE {c:g}"


# --------------------------------------------------------------------------
# catalog: thread safety + versioning
# --------------------------------------------------------------------------
class TestCatalogVersioning:
    def test_register_bumps_version(self, small_store):
        catalog = Catalog()
        assert catalog.version("small") == 0
        assert catalog.register(small_store) == 1
        assert catalog.register(small_store) == 2
        assert catalog.version("small") == 2

    def test_touch_bumps_version(self, small_store):
        catalog = Catalog()
        catalog.register(small_store)
        assert catalog.touch("small") == 2
        assert catalog.version("SMALL") == 2

    def test_touch_unknown_table_raises(self):
        catalog = Catalog()
        with pytest.raises(UnknownTableError):
            catalog.touch("ghost")

    def test_unregister_bumps_version(self, small_store):
        catalog = Catalog()
        catalog.register(small_store)
        catalog.unregister("small")
        assert "small" not in catalog
        assert catalog.version("small") == 2

    def test_listeners_receive_events(self, small_store):
        catalog = Catalog()
        events = []
        catalog.subscribe(lambda *args: events.append(args))
        catalog.register(small_store)
        catalog.touch("small")
        catalog.unregister("small")
        assert events == [
            ("register", "small", 1),
            ("touch", "small", 2),
            ("unregister", "small", 3),
        ]
        catalog.unsubscribe(events.append)  # unknown listener: no-op

    def test_concurrent_register_resolve(self, small_store):
        catalog = Catalog()
        errors = []

        def hammer(index: int) -> None:
            try:
                for _ in range(200):
                    catalog.register(small_store, name=f"tbl{index}")
                    assert catalog.resolve(f"tbl{index}") is small_store
                    catalog.touch(f"tbl{index}")
                    len(catalog), catalog.table_names
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # 200 registers + 200 touches per table
        assert all(catalog.version(f"tbl{i}") == 400 for i in range(8))


# --------------------------------------------------------------------------
# admission controller
# --------------------------------------------------------------------------
class TestAdmission:
    def test_bounded_admission(self):
        controller = AdmissionController(max_queue=2)
        assert controller.try_admit() and controller.try_admit()
        assert not controller.try_admit()
        assert controller.rejected == 1
        controller.release()
        assert controller.try_admit()
        assert controller.admitted == 3

    def test_release_without_admit_raises(self):
        controller = AdmissionController(max_queue=1)
        with pytest.raises(RuntimeError):
            controller.release()


# --------------------------------------------------------------------------
# precision-aware cache semantics
# --------------------------------------------------------------------------
class TestResultCache:
    def _entry_parts(self, engine, precision=0.5, confidence=0.95):
        statement = STMT.format(p=precision, c=confidence)
        key = make_key(engine, statement)
        result = engine.execute(statement)
        return key, result

    def test_hit_miss_precision_boundaries(self):
        engine = make_engine()
        cache = ResultCache(capacity=8)
        key, result = self._entry_parts(engine, precision=0.5)
        assert cache.lookup(key, 0.5, 0.95) is None  # cold miss
        cache.put(key, result, half_width=0.5, confidence=0.95)

        # equal budget: hit; looser precision: hit; tighter: stale miss
        assert cache.lookup(key, 0.5, 0.95) is not None
        assert cache.lookup(key, 1.0, 0.95) is not None
        assert cache.lookup(key, 0.4, 0.95) is None
        # higher required confidence than achieved: stale miss
        assert cache.lookup(key, 0.5, 0.99) is None
        # lower required confidence: hit
        assert cache.lookup(key, 0.5, 0.90) is not None
        assert cache.stats.hits == 3
        assert cache.stats.stale == 2

    def test_put_keeps_tightest_entry(self):
        engine = make_engine()
        key, result = self._entry_parts(engine)
        cache = ResultCache(capacity=8)
        assert cache.put(key, result, half_width=0.5, confidence=0.95)
        # looser answer must not evict the tighter one
        assert not cache.put(key, result, half_width=1.0, confidence=0.95)
        assert cache.lookup(key, 0.5, 0.95) is not None
        # tighter answer replaces
        assert cache.put(key, result, half_width=0.2, confidence=0.95)
        assert cache.lookup(key, 0.25, 0.95) is not None

    def test_ttl_expiry(self):
        engine = make_engine()
        key, result = self._entry_parts(engine)
        now = [0.0]
        cache = ResultCache(capacity=8, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put(key, result, 0.5, 0.95)
        assert cache.lookup(key, 0.5, 0.95) is not None
        now[0] = 11.0
        assert cache.lookup(key, 0.5, 0.95) is None
        assert cache.stats.stale == 1
        assert len(cache) == 0  # expired entries are dropped

    def test_lru_eviction(self):
        engine = make_engine(tables=1)
        cache = ResultCache(capacity=2)
        keys = []
        for precision in (0.5, 0.6, 0.7):
            statement = STMT.format(p=precision, c=0.95)
            # distinct signatures via distinct methods would be cleaner, but
            # precision is not part of the key — use different versions
            keys.append(
                CacheKey(
                    signature=CacheSignature(
                        aggregate="avg", column="value", table="t0",
                        method="ISLA", time_budget_ms=None,
                    ),
                    table_version=len(keys) + 1,
                )
            )
        result = engine.execute(STMT.format(p=0.5, c=0.95))
        cache.put(keys[0], result, 0.5, 0.95)
        cache.put(keys[1], result, 0.5, 0.95)
        assert cache.lookup(keys[0], 0.5, 0.95) is not None  # refresh LRU order
        cache.put(keys[2], result, 0.5, 0.95)  # evicts keys[1]
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[1], 0.5, 0.95) is None
        assert cache.lookup(keys[0], 0.5, 0.95) is not None
        assert cache.lookup(keys[2], 0.5, 0.95) is not None

    def test_invalidate_table(self):
        engine = make_engine(tables=2)
        cache = ResultCache(capacity=8)
        for table in ("t0", "t1"):
            statement = f"SELECT AVG(value) FROM {table} PRECISION 0.5"
            key = make_key(engine, statement)
            cache.put(key, engine.execute(statement), 0.5, 0.95)
        assert cache.invalidate_table("T0") == 1
        assert len(cache) == 1
        assert cache.stats.invalidations == 1

    def test_achieved_bound(self):
        engine = make_engine()
        assert achieved_bound(engine.plan(STMT.format(p=0.5, c=0.95))) == (0.5, 0.95)
        exact = engine.plan("SELECT AVG(value) FROM t0 METHOD EXACT")
        assert achieved_bound(exact) == (0.0, 1.0)
        timed = engine.plan("SELECT AVG(value) FROM t0 PRECISION 0.5 TIME 5000")
        assert achieved_bound(timed) is None


# --------------------------------------------------------------------------
# service: end-to-end serving semantics
# --------------------------------------------------------------------------
class TestQueryService:
    def test_submit_and_result(self):
        engine = make_engine()
        with engine.serve(workers=2, seed=1) as service:
            ticket = service.submit(STMT.format(p=0.5, c=0.95))
            result = ticket.result()
        assert abs(result.value - 100.0) < 2.0
        assert ticket.done()

    def test_repeated_workload_cache_hits_and_bounds(self):
        """Acceptance: >=50% hits, every served answer within its bound."""
        engine = make_engine(seed=7, rows=20_000)
        truth = engine.catalog.resolve("t0").exact_mean()
        statements = [STMT.format(p=p, c=0.95) for p in (0.6, 0.8, 1.0)]
        with engine.serve(workers=4, seed=3) as service:
            # warm the cache serially (deterministic: no racing duplicates)
            for statement in statements:
                assert service.submit(statement).outcome().ok
            outcomes = service.execute_many(statements * 4)
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.cache_hit for outcome in outcomes)
        hits = sum(1 for outcome in outcomes if outcome.cache_hit)
        assert hits / len(outcomes) >= 0.5
        # every served answer satisfies its requested precision bound,
        # verified against the exact ground truth
        for outcome, statement in zip(outcomes, statements * 4):
            requested = float(statement.split("PRECISION")[1].split()[0])
            assert abs(outcome.result.value - truth) <= requested
            assert outcome.result.details.get("served_from_cache") is True

    def test_tighter_request_misses_cache(self):
        engine = make_engine()
        with engine.serve(workers=1, seed=5) as service:
            first = service.submit(STMT.format(p=1.0, c=0.95)).outcome()
            looser = service.submit(STMT.format(p=2.0, c=0.95)).outcome()
            tighter = service.submit(STMT.format(p=0.5, c=0.95)).outcome()
        assert not first.cache_hit
        assert looser.cache_hit
        assert not tighter.cache_hit
        assert service.cache.stats.stale >= 1

    def test_invalidation_on_reregister(self):
        engine = make_engine(seed=11)
        rng = np.random.default_rng(99)
        with engine.serve(workers=1, seed=5) as service:
            assert not service.submit(STMT.format(p=0.5, c=0.95)).outcome().cache_hit
            assert service.submit(STMT.format(p=0.5, c=0.95)).outcome().cache_hit
            # re-registering the table drops cached answers for it
            engine.register_array("t0", rng.normal(50.0, 5.0, 10_000), block_count=4)
            outcome = service.submit(STMT.format(p=0.5, c=0.95)).outcome()
            assert not outcome.cache_hit
            assert abs(outcome.result.value - 50.0) < 1.0

    def test_invalidation_on_online_append(self):
        engine = make_engine(seed=13, rows=10_000)
        with engine.serve(workers=1, seed=5) as service:
            assert not service.submit(STMT.format(p=0.5, c=0.95)).outcome().cache_hit
            assert service.submit(STMT.format(p=0.5, c=0.95)).outcome().cache_hit
            version = engine.append_array("t0", np.full(5_000, 200.0))
            assert version == 2
            outcome = service.submit(STMT.format(p=1.0, c=0.95)).outcome()
            assert not outcome.cache_hit  # append invalidated the cache
            # the fresh answer sees the appended rows (pre-append mean ~100;
            # the appended constant-200 block drags the estimate well above)
            assert outcome.result.value > 110.0

    def test_queue_full_load_shedding(self):
        engine = make_engine(rows=5_000)
        release = threading.Event()
        original = engine.execute_plan

        def slow_execute(plan, seed=None):
            release.wait(timeout=10.0)
            return original(plan, seed=seed)

        engine.execute_plan = slow_execute  # type: ignore[method-assign]
        service = QueryService(engine, ServeConfig(workers=1, max_queue=1, seed=1))
        try:
            blocker = service.submit(STMT.format(p=0.5, c=0.95))
            time.sleep(0.05)  # let the worker pick it up (queue drains)
            queued = service.submit(STMT.format(p=0.6, c=0.95))
            shed = service.submit(STMT.format(p=0.7, c=0.95))
            outcome = shed.outcome(timeout=1.0)
            assert outcome.status == "rejected"
            assert outcome.rejection.reason == "queue_full"
            with pytest.raises(AdmissionRejected) as excinfo:
                outcome.unwrap()
            assert excinfo.value.reason == "queue_full"
            release.set()
            assert blocker.outcome(timeout=10.0).ok
            assert queued.outcome(timeout=10.0).ok
        finally:
            release.set()
            service.close()
        assert service.stats()["rejected_queue_full"] == 1

    def test_deadline_shed_at_dequeue(self):
        engine = make_engine(rows=5_000)
        release = threading.Event()
        original = engine.execute_plan

        def slow_execute(plan, seed=None):
            release.wait(timeout=10.0)
            return original(plan, seed=seed)

        engine.execute_plan = slow_execute  # type: ignore[method-assign]
        service = QueryService(engine, ServeConfig(workers=1, max_queue=8, seed=1))
        try:
            blocker = service.submit(STMT.format(p=0.5, c=0.95))
            time.sleep(0.05)
            doomed = service.submit(STMT.format(p=0.6, c=0.95), deadline_ms=10.0)
            time.sleep(0.1)  # deadline passes while queued behind the blocker
            release.set()
            outcome = doomed.outcome(timeout=10.0)
            assert outcome.status == "rejected"
            assert outcome.rejection.reason == "deadline"
            assert blocker.outcome(timeout=10.0).ok
        finally:
            release.set()
            service.close()
        assert service.stats()["shed_deadline"] == 1

    def test_retry_with_backoff_on_transient_failure(self):
        engine = make_engine(rows=5_000)
        attempts = []
        original = engine.execute_plan

        def flaky_execute(plan, seed=None):
            attempts.append(seed)
            if len(attempts) < 3:
                raise EstimationError("transient wobble")
            return original(plan, seed=seed)

        engine.execute_plan = flaky_execute  # type: ignore[method-assign]
        service = QueryService(
            engine,
            ServeConfig(workers=1, max_retries=2, retry_backoff_seconds=0.001, seed=1),
        )
        try:
            outcome = service.submit(STMT.format(p=0.5, c=0.95)).outcome(timeout=10.0)
        finally:
            service.close()
        assert outcome.ok
        assert outcome.attempts == 3
        # each retry used a fresh child seed
        assert len({id(seed) for seed in attempts}) == 3
        assert service.stats()["retries"] == 2

    def test_retries_exhausted_is_failed_outcome(self):
        engine = make_engine(rows=5_000)

        def always_fails(plan, seed=None):
            raise EstimationError("permanent wobble")

        engine.execute_plan = always_fails  # type: ignore[method-assign]
        service = QueryService(
            engine,
            ServeConfig(workers=1, max_retries=1, retry_backoff_seconds=0.0, seed=1),
        )
        try:
            outcome = service.submit(STMT.format(p=0.5, c=0.95)).outcome(timeout=10.0)
        finally:
            service.close()
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        with pytest.raises(EstimationError):
            outcome.unwrap()

    def test_retry_never_outlives_deadline(self):
        # A transient failure storm with aggressive backoff must not keep
        # retrying past the query's deadline: the service sheds instead of
        # answering late.
        engine = make_engine(rows=5_000)

        def slow_transient_failure(plan, seed=None):
            time.sleep(0.02)
            raise EstimationError("transient wobble")

        engine.execute_plan = slow_transient_failure  # type: ignore[method-assign]
        service = QueryService(
            engine,
            ServeConfig(
                workers=1,
                max_retries=50,
                retry_backoff_seconds=0.05,  # 50ms, 100ms, 200ms, ... would overrun
                seed=1,
            ),
        )
        deadline_ms = 120.0
        try:
            start = time.monotonic()
            outcome = service.submit(
                STMT.format(p=0.5, c=0.95), deadline_ms=deadline_ms
            ).outcome(timeout=10.0)
            elapsed = time.monotonic() - start
            stats = service.stats()
        finally:
            service.close()
        assert outcome.status == "rejected"
        assert outcome.rejection is not None
        assert outcome.rejection.reason == "deadline"
        assert outcome.attempts >= 1
        # Resolved near the deadline, not after the full retry schedule
        # (50 retries x 20ms failures + exponential backoff >> 1s).
        assert elapsed < 1.0
        assert stats["shed_deadline"] >= 1

    def test_retry_within_deadline_still_succeeds(self):
        # The deadline guard must not over-shed: with room to spare, the
        # retry path behaves exactly as before.
        engine = make_engine(rows=5_000)
        attempts = []
        original = engine.execute_plan

        def flaky_execute(plan, seed=None):
            attempts.append(seed)
            if len(attempts) < 3:
                raise EstimationError("transient wobble")
            return original(plan, seed=seed)

        engine.execute_plan = flaky_execute  # type: ignore[method-assign]
        service = QueryService(
            engine,
            ServeConfig(workers=1, max_retries=5, retry_backoff_seconds=0.001, seed=1),
        )
        try:
            outcome = service.submit(
                STMT.format(p=0.5, c=0.95), deadline_ms=5_000.0
            ).outcome(timeout=10.0)
        finally:
            service.close()
        assert outcome.ok
        assert outcome.attempts == 3

    def test_plan_error_is_failed_outcome(self):
        engine = make_engine()
        with engine.serve(workers=1) as service:
            outcome = service.submit("SELECT AVG(value) FROM ghost").outcome()
        assert outcome.status == "failed"
        with pytest.raises(UnknownTableError):
            outcome.unwrap()

    def test_submit_after_close_raises(self):
        engine = make_engine()
        service = engine.serve(workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(STMT.format(p=0.5, c=0.95))

    def test_reproducible_across_worker_counts(self):
        """Child seeds follow submission order, not worker interleaving."""
        statements = [STMT.format(p=p, c=0.95) for p in (0.5, 0.6, 0.7, 0.8)]

        def run(workers: int):
            engine = make_engine(seed=21, rows=10_000)
            config = ServeConfig(workers=workers, cache_enabled=False, seed=17)
            with QueryService(engine, config) as service:
                return [o.result.value for o in service.execute_many(statements)]

        assert run(1) == run(4)

    def test_multithreaded_stress_no_lost_or_duplicated_results(self):
        """Many submitters, few workers: every ticket resolves exactly once."""
        engine = make_engine(seed=31, rows=5_000, tables=3)
        service = QueryService(
            engine, ServeConfig(workers=4, max_queue=1024, seed=9)
        )
        per_thread = 25
        collected: dict = {}
        errors = []

        def submitter(thread_id: int) -> None:
            try:
                tickets = []
                for index in range(per_thread):
                    table = f"t{(thread_id + index) % 3}"
                    precision = 0.5 + 0.1 * (index % 5)
                    tickets.append(service.submit(
                        f"SELECT AVG(value) FROM {table} PRECISION {precision:g}"
                    ))
                collected[thread_id] = [t.outcome(timeout=60.0) for t in tickets]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()

        assert not errors
        outcomes = [outcome for batch in collected.values() for outcome in batch]
        assert len(outcomes) == 8 * per_thread  # nothing lost
        assert all(outcome.ok for outcome in outcomes)
        # nothing duplicated: the service accounted for every single query
        stats = service.stats()
        assert stats["submitted"] == 8 * per_thread
        assert stats["completed"] == 8 * per_thread
        assert stats["failed"] == 0
        # all answers are sane means no cross-table mixups either
        for outcome in outcomes:
            assert 90.0 < outcome.result.value < 110.0

    def test_execute_plan_seed_override_is_reproducible(self):
        engine = make_engine(seed=1, rows=10_000)
        plan = engine.plan(STMT.format(p=0.5, c=0.95))
        seq = np.random.SeedSequence(5)
        first = engine.execute_plan(plan, seed=seq)
        second = engine.execute_plan(plan, seed=np.random.SeedSequence(5))
        assert first.value == second.value
        # distinct children give distinct streams
        children = np.random.SeedSequence(5).spawn(2)
        assert engine.execute_plan(plan, seed=children[0]).value != \
            engine.execute_plan(plan, seed=children[1]).value


class TestThroughput:
    """A repeated multi-table workload: the serial loop vs the cached pool."""

    TABLES = [f"serve_t{index}" for index in range(3)]

    def _engine(self) -> AQPEngine:
        engine = AQPEngine(seed=0)
        rng = np.random.default_rng(0)
        for index, name in enumerate(self.TABLES):
            values = rng.normal(100.0 + 10.0 * index, 20.0, 20_000)
            engine.register_array(name, values, block_count=16)
        return engine

    def test_cached_pool_beats_the_serial_loop(self):
        workload = [
            f"SELECT AVG(value) FROM {name} PRECISION {precision:g} CONFIDENCE 0.95"
            for name in self.TABLES
            for precision in (0.5, 1.0)
        ] * 4
        np.random.default_rng(0).shuffle(workload)

        engine = self._engine()
        truths = {name: engine.catalog.resolve(name).exact_mean() for name in self.TABLES}
        start = time.perf_counter()
        for statement in workload:
            engine.execute(statement)
        serial_seconds = time.perf_counter() - start

        config = ServeConfig(workers=4, max_queue=len(workload), seed=0)
        with QueryService(self._engine(), config) as service:
            start = time.perf_counter()
            outcomes = service.execute_many(workload)
            pool_seconds = time.perf_counter() - start
        uncached = replace(config, cache_enabled=False)
        with QueryService(self._engine(), uncached) as service:
            assert all(outcome.ok for outcome in service.execute_many(workload))

        assert all(outcome.ok for outcome in outcomes)
        assert pool_seconds < serial_seconds
        hits = [outcome for outcome in outcomes if outcome.cache_hit]
        assert len(hits) / len(workload) >= 0.5
        # A hit (cached or coalesced) may only be served within its achieved
        # bound: a deterministic contract.
        for outcome in hits:
            details = outcome.result.details
            requested = float(outcome.statement.split("PRECISION")[1].split()[0])
            assert details["achieved_precision"] <= requested + 1e-12
            assert (
                details["achieved_confidence"]
                >= details["requested_confidence"] - 1e-12
            )
        # At 95% confidence about 5% of executions miss by design, so misses
        # are counted per execution, with slack for a small batch.
        executed = [outcome for outcome in outcomes if not outcome.cache_hit]
        misses = sum(
            abs(outcome.result.value - truths[outcome.result.table])
            > float(outcome.statement.split("PRECISION")[1].split()[0])
            for outcome in executed
        )
        assert misses <= max(2, round(0.15 * len(executed)))
