"""The in-process query-serving subsystem: worker pool + admission + cache.

:class:`QueryService` layers three production concerns on top of
:class:`~repro.query.engine.AQPEngine`:

* a **bounded worker pool** with a futures-based submission API
  (:meth:`~QueryService.submit` / :meth:`~QueryService.execute_many`)
  running concurrent queries against the engine's shared catalog;
* **admission control** — a bounded queue with load shedding (typed
  :class:`Rejected` outcomes rather than exceptions), per-query deadlines
  checked at dequeue time, and retry-with-backoff for transient estimator
  failures;
* a **precision-aware result cache** keyed on the canonical query
  signature plus the catalog's per-table version: a cached answer is
  served iff its achieved CI half-width is at most the requested
  ``PRECISION`` and its confidence at least the requested ``CONFIDENCE``.

Every submitted query derives an independent child of one
``np.random.SeedSequence`` (in submission order), so a seeded service
produces bit-identical answers regardless of worker interleaving.  This is
one half of the seed-determinism contract shared with the partition
backend and documented in :mod:`repro.parallel.seeding`: a served query's
child seed becomes the key of that query's per-partition streams, so
serving-level and scan-level concurrency compose without ever changing a
seeded answer.

When the engine's config sets ``parallelism`` above 1, worker threads
shard their block scans into the one process-wide scan pool
(:func:`repro.parallel.pool.shared_scan_pool`) — total scan threads stay
bounded by the pool size no matter how many service workers are executing,
so serving concurrency never oversubscribes the machine.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import (
    AdmissionRejected,
    ConvergenceError,
    EstimationError,
    ReproError,
    ServiceClosed,
    TimeBudgetExceeded,
)
from repro.query.engine import AQPEngine
from repro.query.executor import ExecutionResult
from repro.query.planner import QueryPlan
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import CacheKey, ResultCache, achieved_bound

__all__ = ["ServeConfig", "Rejected", "QueryOutcome", "QueryTicket", "QueryService"]

#: sentinel pushed once per worker to terminate the pool
_SHUTDOWN = object()


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of a :class:`QueryService`."""

    #: worker threads executing queries
    workers: int = 4
    #: maximum queries waiting for a worker before load shedding kicks in
    max_queue: int = 64
    #: deadline applied to submissions that do not carry their own (None = none)
    default_deadline_ms: Optional[float] = None
    #: additional attempts after a transient executor failure
    max_retries: int = 2
    #: base sleep before a retry; doubles per attempt
    retry_backoff_seconds: float = 0.01
    #: uniform jitter factor on retry backoff (0 = deterministic backoff);
    #: 0.5 means each sleep is stretched by up to +50%, de-synchronising
    #: retry herds when many queries fail at once
    retry_jitter: float = 0.5
    #: exception types treated as transient (retried with a fresh child seed)
    retryable_errors: Tuple[type, ...] = (ConvergenceError, EstimationError)
    #: master switch for the per-table circuit breaker
    breaker_enabled: bool = True
    #: executed-failure rate that trips a table's breaker
    breaker_failure_threshold: float = 0.5
    #: rolling window of executed outcomes the failure rate is computed over
    breaker_window: int = 32
    #: minimum executed outcomes in the window before the breaker may trip
    breaker_min_requests: int = 10
    #: seconds an open breaker rejects before letting probes through
    breaker_cooldown_seconds: float = 2.0
    #: consecutive probe successes that close a half-open breaker
    breaker_half_open_probes: int = 2
    #: master switch for the precision-aware result cache
    cache_enabled: bool = True
    #: LRU bound on cached answers
    cache_capacity: int = 256
    #: cached-answer time-to-live in seconds (None = no expiry)
    cache_ttl_seconds: Optional[float] = None
    #: root seed of the per-query SeedSequence spawns (None = engine seed)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be at least 1, got {self.max_queue}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.retry_backoff_seconds < 0:
            raise ValueError(
                f"retry_backoff_seconds must be non-negative, "
                f"got {self.retry_backoff_seconds}"
            )
        if self.retry_jitter < 0:
            raise ValueError(
                f"retry_jitter must be non-negative, got {self.retry_jitter}"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )
        # breaker knob validation is delegated to CircuitBreaker, which
        # raises the same ValueError contract on construction
        CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            window=self.breaker_window,
            min_requests=self.breaker_min_requests,
            cooldown_seconds=self.breaker_cooldown_seconds,
            half_open_probes=self.breaker_half_open_probes,
        )


@dataclass(frozen=True)
class Rejected:
    """Typed load-shedding outcome (the query was never executed)."""

    #: ``"queue_full"`` (shed at submit), ``"deadline"`` (shed at dequeue or
    #: mid-retry), or ``"circuit_open"`` (the table's breaker is rejecting)
    reason: str
    message: str


@dataclass(frozen=True)
class QueryOutcome:
    """Everything the service knows about one submitted query."""

    statement: str
    status: str  # "ok" | "rejected" | "failed"
    result: Optional[ExecutionResult] = None
    rejection: Optional[Rejected] = None
    error: Optional[BaseException] = None
    cache_hit: bool = False
    attempts: int = 0
    queue_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when a result was produced (from cache or execution)."""
        return self.status == "ok"

    def unwrap(self) -> ExecutionResult:
        """The result, or the typed error this outcome carries."""
        if self.result is not None:
            return self.result
        if self.rejection is not None:
            raise AdmissionRejected(self.rejection.reason, self.rejection.message)
        if self.error is not None:
            raise self.error
        raise ReproError(f"query {self.statement!r} produced no outcome")


class QueryTicket:
    """Handle to one submitted query (a thin wrapper over a Future)."""

    __slots__ = ("statement", "_future")

    def __init__(self, statement: str, future: Future) -> None:
        self.statement = statement
        self._future = future

    def done(self) -> bool:
        """True once the outcome is available."""
        return self._future.done()

    def outcome(self, timeout: Optional[float] = None) -> QueryOutcome:
        """Block until the service resolves this query."""
        return self._future.result(timeout=timeout)

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        """The execution result; raises the typed error on rejection/failure."""
        return self.outcome(timeout=timeout).unwrap()


@dataclass
class _Submission:
    """One queue item: statement + deadline + pre-spawned child seed."""

    statement: str
    future: Future
    seed: np.random.SeedSequence
    enqueued_at: float
    deadline: Optional[float]  # absolute time.monotonic() instant


class QueryService:
    """Concurrent, cached, admission-controlled front door to an engine."""

    def __init__(self, engine: AQPEngine, config: Optional[ServeConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        self.cache: Optional[ResultCache] = (
            ResultCache(
                capacity=self.config.cache_capacity,
                ttl_seconds=self.config.cache_ttl_seconds,
            )
            if self.config.cache_enabled
            else None
        )
        self._admission = AdmissionController(self.config.max_queue)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        # request coalescing: key -> Future[(result, bound)] of the in-flight
        # execution, so identical concurrent queries run the work once
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[CacheKey, Future] = {}
        self._coalesced = 0
        root_seed = self.config.seed if self.config.seed is not None else engine.seed
        self._seed_seq = np.random.SeedSequence(root_seed)
        self._lock = threading.Lock()
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed_deadline = 0
        self._retries = 0
        self._rejected_circuit = 0
        self._degraded = 0
        # one breaker per (lower-cased) table, created on first execution
        self._breaker_lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        engine.catalog.subscribe(self._on_catalog_event)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{index}", daemon=True
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ API
    def submit(
        self, statement: str, *, deadline_ms: Optional[float] = None
    ) -> QueryTicket:
        """Enqueue one statement; never blocks.

        Returns a :class:`QueryTicket` immediately.  When the wait queue is
        at ``max_queue`` the ticket resolves at once to a ``queue_full``
        :class:`Rejected` outcome (load shedding), so callers under
        overload fail fast instead of piling up.
        """
        future: Future = Future()
        ticket = QueryTicket(statement, future)
        deadline_ms = (
            deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("submit() on a closed QueryService")
            self._submitted += 1
            admitted = self._admission.try_admit()
            # spawn under the lock: child seeds follow submission order, so a
            # seeded service is reproducible regardless of worker scheduling
            child_seed = self._seed_seq.spawn(1)[0] if admitted else None
        if not admitted:
            obs.counter("serve.admission.rejected")
            future.set_result(
                QueryOutcome(
                    statement=statement,
                    status="rejected",
                    rejection=Rejected(
                        reason="queue_full",
                        message=(
                            f"admission queue full "
                            f"({self.config.max_queue} waiting queries)"
                        ),
                    ),
                )
            )
            return ticket
        now = time.monotonic()
        self._queue.put(
            _Submission(
                statement=statement,
                future=future,
                seed=child_seed,
                enqueued_at=now,
                deadline=now + deadline_ms / 1000.0 if deadline_ms is not None else None,
            )
        )
        obs.counter("serve.submitted")
        obs.gauge("serve.queue.depth", self._admission.depth)
        return ticket

    def execute_many(
        self,
        statements: Iterable[str],
        *,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Submit a batch and wait for every outcome (in input order).

        Statements beyond the admission bound come back as ``queue_full``
        rejections — raise ``max_queue`` when a batch must fully execute.
        """
        tickets = [self.submit(statement, deadline_ms=deadline_ms) for statement in statements]
        return [ticket.outcome(timeout=timeout) for ticket in tickets]

    def invalidate(self, table: str) -> int:
        """Drop every cached answer for ``table``; returns the count."""
        if self.cache is None:
            return 0
        return self.cache.invalidate_table(table)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict serving counters (independent of the obs switch).

        The counters are read under the service lock, so the snapshot is
        internally consistent — e.g. ``completed + failed`` never exceeds
        what ``submitted`` accounted for at the same instant.  The
        ``rejected`` sub-dict breaks load shedding down by typed reason.
        """
        with self._lock:
            queue_full = self._admission.rejected
            snapshot = {
                "workers": self.config.workers,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "degraded": self._degraded,
                "rejected": {
                    "queue_full": queue_full,
                    "deadline": self._shed_deadline,
                    "circuit_open": self._rejected_circuit,
                },
                # legacy flat keys, kept for dashboards and older callers
                "rejected_queue_full": queue_full,
                "shed_deadline": self._shed_deadline,
                "retries": self._retries,
                "coalesced": self._coalesced,
                "queue_depth": self._admission.depth,
                "cache": (
                    self.cache.stats.to_dict() if self.cache is not None else None
                ),
            }
        return snapshot

    def health(self) -> Dict[str, Any]:
        """Liveness/degradation report for external health checks.

        ``status`` is ``"ok"`` when the service accepts queries and every
        table breaker is closed, ``"degraded"`` when at least one breaker
        is open or half-open, and ``"closed"`` after :meth:`close`.
        """
        with self._breaker_lock:
            breakers = {
                table: breaker.stats() for table, breaker in self._breakers.items()
            }
        with self._lock:
            closed = self._closed
        tripped = [
            table for table, info in breakers.items() if info["state"] != "closed"
        ]
        status = "closed" if closed else ("degraded" if tripped else "ok")
        return {
            "status": status,
            "workers_alive": sum(1 for worker in self._workers if worker.is_alive()),
            "queue_depth": self._admission.depth,
            "breakers": breakers,
            "tripped_tables": tripped,
        }

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain the queue and join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.engine.catalog.unsubscribe(self._on_catalog_event)
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------- internals
    def _breaker_for(self, table: str) -> CircuitBreaker:
        key = table.lower()
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    window=self.config.breaker_window,
                    min_requests=self.config.breaker_min_requests,
                    cooldown_seconds=self.config.breaker_cooldown_seconds,
                    half_open_probes=self.config.breaker_half_open_probes,
                )
                self._breakers[key] = breaker
            return breaker

    def _retry_backoff(
        self, attempts: int, deadline: Optional[float]
    ) -> Tuple[float, bool]:
        """``(sleep_seconds, shed)`` for the retry after attempt ``attempts``.

        The single place where retry pacing meets the deadline: exponential
        base doubling per attempt, stretched by uniform jitter (so failure
        herds spread out instead of retrying in lock-step), then checked
        against the submission's remaining budget — a backoff the deadline
        cannot absorb returns ``shed=True`` and the query is rejected now
        rather than answered late.
        """
        backoff = self.config.retry_backoff_seconds * (2 ** (attempts - 1))
        if self.config.retry_jitter > 0.0:
            backoff *= 1.0 + self.config.retry_jitter * random.random()
        if deadline is not None and deadline - time.monotonic() <= backoff:
            return 0.0, True
        return backoff, False

    def _on_catalog_event(self, event: str, table: str, version: int) -> None:
        # register / unregister / touch all invalidate eagerly; version keying
        # would shadow stale entries anyway, this frees their memory too.
        if self.cache is not None:
            self.cache.invalidate_table(table)

    def _worker_loop(self) -> None:
        scope = (
            self.engine.telemetry.activate()
            if self.engine.telemetry is not None
            else nullcontext()
        )
        with scope:
            while True:
                item = self._queue.get()
                if item is _SHUTDOWN:
                    break
                self._admission.release()
                obs.gauge("serve.queue.depth", self._admission.depth)
                try:
                    outcome = self._serve(item)
                except BaseException as exc:  # noqa: BLE001 - worker must survive
                    outcome = QueryOutcome(
                        statement=item.statement, status="failed", error=exc
                    )
                with self._lock:
                    if outcome.status == "ok":
                        self._completed += 1
                    elif outcome.status == "failed":
                        self._failed += 1
                item.future.set_result(outcome)

    def _serve(self, item: _Submission) -> QueryOutcome:
        start = time.monotonic()
        queue_seconds = start - item.enqueued_at
        obs.observe("serve.queue_wait.seconds", queue_seconds)
        with obs.span("serve.query", statement=item.statement) as sp:
            if item.deadline is not None and start > item.deadline:
                # Same semantics as TimeBudgetExceeded: the budget elapsed
                # before an answer existed — shed instead of wasting work.
                with self._lock:
                    self._shed_deadline += 1
                obs.counter("serve.deadline.shed")
                sp.set_tag("outcome", "deadline")
                return QueryOutcome(
                    statement=item.statement,
                    status="rejected",
                    rejection=Rejected(
                        reason="deadline",
                        message=(
                            f"deadline passed after {queue_seconds * 1000.0:.1f}ms "
                            f"in queue"
                        ),
                    ),
                    queue_seconds=queue_seconds,
                    total_seconds=time.monotonic() - item.enqueued_at,
                )

            try:
                plan = self.engine.plan(item.statement)
            except ReproError as exc:
                sp.set_tag("outcome", "plan_error")
                return QueryOutcome(
                    statement=item.statement,
                    status="failed",
                    error=exc,
                    queue_seconds=queue_seconds,
                    total_seconds=time.monotonic() - item.enqueued_at,
                )

            key: Optional[CacheKey] = None
            if self.cache is not None:
                version = self.engine.catalog.version(plan.store.name)
                key = CacheKey.from_plan(plan, version)
                entry = self.cache.lookup(
                    key, plan.config.precision, plan.config.confidence
                )
                if entry is not None:
                    obs.counter("serve.cache.hit")
                    sp.set_tag("outcome", "cache_hit")
                    total = time.monotonic() - item.enqueued_at
                    obs.observe("serve.latency.seconds", total)
                    return QueryOutcome(
                        statement=item.statement,
                        status="ok",
                        result=self._annotate_cached(
                            entry.result, plan, (entry.half_width, entry.confidence)
                        ),
                        cache_hit=True,
                        queue_seconds=queue_seconds,
                        total_seconds=total,
                    )
                obs.counter("serve.cache.miss")

            # ------------------------------------------------ circuit breaker
            # Gated after the cache: serving a still-valid cached answer costs
            # nothing and touches nothing broken, so an open circuit only
            # blocks queries that would actually execute against the table.
            breaker = (
                self._breaker_for(plan.store.name)
                if self.config.breaker_enabled
                else None
            )
            if breaker is not None and not breaker.allow():
                with self._lock:
                    self._rejected_circuit += 1
                obs.counter("serve.circuit.rejected")
                sp.set_tag("outcome", "circuit_open")
                return QueryOutcome(
                    statement=item.statement,
                    status="rejected",
                    rejection=Rejected(
                        reason="circuit_open",
                        message=(
                            f"circuit breaker for table {plan.store.name!r} is "
                            f"{breaker.state}; retry after "
                            f"{self.config.breaker_cooldown_seconds:g}s"
                        ),
                    ),
                    queue_seconds=queue_seconds,
                    total_seconds=time.monotonic() - item.enqueued_at,
                )

            # ---------------------------------------------- request coalescing
            leader = False
            inflight: Optional[Future] = None
            if key is not None:
                with self._inflight_lock:
                    inflight = self._inflight.get(key)
                    if inflight is None:
                        inflight = Future()
                        self._inflight[key] = inflight
                        leader = True
            if inflight is not None and not leader:
                coalesced = self._await_inflight(inflight, item, plan, queue_seconds, sp)
                if coalesced is not None:
                    return coalesced
                # the in-flight execution failed or its bound was too loose
                # for this request — fall through and execute independently

            outcome: Optional[QueryOutcome] = None
            try:
                outcome = self._execute_with_retries(item, plan, queue_seconds)
            finally:
                if leader:
                    with self._inflight_lock:
                        self._inflight.pop(key, None)
                    # degraded answers are never shared: a follower asked for
                    # the full-precision answer, not one missing partitions
                    if (
                        outcome is not None
                        and outcome.status == "ok"
                        and outcome.result is not None
                        and not outcome.result.degraded
                    ):
                        inflight.set_result((outcome.result, achieved_bound(plan)))
                    else:
                        inflight.set_result((None, None))
            if breaker is not None:
                # only *executed* outcomes are evidence about table health;
                # deadline sheds during retries stay out of the window
                if outcome.status == "ok":
                    breaker.record_success()
                elif outcome.status == "failed":
                    breaker.record_failure()
            if outcome.status == "ok" and outcome.result is not None:
                if outcome.result.degraded:
                    with self._lock:
                        self._degraded += 1
                    obs.counter("serve.degraded")
                elif self.cache is not None and key is not None:
                    # a degraded answer must not poison the precision-aware
                    # cache — its widened CI would be served as if complete
                    bound = achieved_bound(plan)
                    if bound is not None:
                        self.cache.put(key, outcome.result, *bound)
            sp.set_tag("outcome", outcome.status)
            obs.observe("serve.latency.seconds", outcome.total_seconds)
            return outcome

    def _await_inflight(
        self,
        inflight: Future,
        item: _Submission,
        plan: QueryPlan,
        queue_seconds: float,
        sp,
    ) -> Optional[QueryOutcome]:
        """Piggyback on an identical in-flight execution when possible.

        Returns None when the shared answer cannot serve this request (the
        leader failed, or ran at a looser budget than asked here) — the
        caller then executes independently.
        """
        obs.counter("serve.coalesced.wait")
        try:
            shared_result, shared_bound = inflight.result()
        except Exception:  # noqa: BLE001 - leader's error surfaces on its own ticket
            return None
        if (
            shared_result is None
            or shared_bound is None
            or shared_bound[0] > plan.config.precision
            or shared_bound[1] < plan.config.confidence
        ):
            return None
        with self._lock:
            self._coalesced += 1
        total = time.monotonic() - item.enqueued_at
        obs.counter("serve.cache.hit")
        obs.observe("serve.latency.seconds", total)
        sp.set_tag("outcome", "coalesced")
        return QueryOutcome(
            statement=item.statement,
            status="ok",
            result=self._annotate_cached(shared_result, plan, shared_bound),
            cache_hit=True,
            queue_seconds=queue_seconds,
            total_seconds=total,
        )

    def _execute_with_retries(
        self, item: _Submission, plan: QueryPlan, queue_seconds: float
    ) -> QueryOutcome:
        attempts = 0
        seed: np.random.SeedSequence = item.seed
        while True:
            attempts += 1
            try:
                result = self.engine.execute_plan(plan, seed=seed)
                return QueryOutcome(
                    statement=item.statement,
                    status="ok",
                    result=result,
                    attempts=attempts,
                    queue_seconds=queue_seconds,
                    total_seconds=time.monotonic() - item.enqueued_at,
                )
            except self.config.retryable_errors as exc:
                if attempts > self.config.max_retries:
                    return QueryOutcome(
                        statement=item.statement,
                        status="failed",
                        error=exc,
                        attempts=attempts,
                        queue_seconds=queue_seconds,
                        total_seconds=time.monotonic() - item.enqueued_at,
                    )
                backoff, shed = self._retry_backoff(attempts, item.deadline)
                if shed:
                    # the deadline has passed — or would pass while backing
                    # off — so shed the query now rather than answer late
                    with self._lock:
                        self._shed_deadline += 1
                    obs.counter("serve.deadline.shed")
                    return QueryOutcome(
                        statement=item.statement,
                        status="rejected",
                        rejection=Rejected(
                            reason="deadline",
                            message=(
                                f"deadline reached after {attempts} "
                                f"attempt(s); not retrying"
                            ),
                        ),
                        error=exc,
                        attempts=attempts,
                        queue_seconds=queue_seconds,
                        total_seconds=time.monotonic() - item.enqueued_at,
                    )
                with self._lock:
                    self._retries += 1
                obs.counter("serve.retry")
                if backoff > 0:
                    time.sleep(backoff)
                # a fresh child stream for the retry: a deterministic failure
                # must not deterministically repeat
                seed = item.seed.spawn(1)[0]
            except (TimeBudgetExceeded, ReproError) as exc:
                return QueryOutcome(
                    statement=item.statement,
                    status="failed",
                    error=exc,
                    attempts=attempts,
                    queue_seconds=queue_seconds,
                    total_seconds=time.monotonic() - item.enqueued_at,
                )

    @staticmethod
    def _annotate_cached(
        result: ExecutionResult,
        plan: QueryPlan,
        bound: Tuple[float, float],
    ) -> ExecutionResult:
        """Mark a served-from-cache answer without mutating the cached copy."""
        details = dict(result.details)
        details["served_from_cache"] = True
        details["achieved_precision"] = bound[0]
        details["achieved_confidence"] = bound[1]
        details["requested_precision"] = plan.config.precision
        details["requested_confidence"] = plan.config.confidence
        return replace(result, details=details)
