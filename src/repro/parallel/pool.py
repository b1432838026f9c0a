"""The scan pool: bounded thread workers shared by every partition scan.

One process gets one :class:`ScanPool` (lazily created, sized to the
hardware unless ``REPRO_PARALLELISM`` overrides it).  Every parallel scan —
whether issued directly through :class:`~repro.query.engine.AQPEngine` or by
the serving layer's worker threads — submits its partition shards into this
shared pool, so ``serve`` workers never oversubscribe the machine: total
scan threads stay bounded by the pool size no matter how many queries are
in flight.

Determinism is *not* the pool's job: partitions carry their own random
streams (see :mod:`repro.parallel.seeding`), so the pool is free to schedule
shards in any order on any thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro import faults, obs

__all__ = [
    "ScanPool",
    "PartitionFailure",
    "PartialScanResult",
    "shared_scan_pool",
    "reset_shared_scan_pool",
    "default_parallelism",
]

T = TypeVar("T")
U = TypeVar("U")

#: environment override for the shared pool size
ENV_PARALLELISM = "REPRO_PARALLELISM"


def default_parallelism() -> int:
    """Default worker count: ``REPRO_PARALLELISM`` or the CPU count.

    A malformed override is not silently ignored — a warning names the bad
    value before falling back to the CPU count, so a typo in a deployment
    environment cannot quietly change the machine's scan concurrency.
    """
    override = os.environ.get(ENV_PARALLELISM)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            warnings.warn(
                f"ignoring malformed {ENV_PARALLELISM}={override!r} "
                f"(not an integer); falling back to the CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class PartitionFailure:
    """One partition that could not be scanned."""

    #: position of the partition in the scanned item sequence
    index: int
    #: the partition's stable key (its block id) when the caller supplied one
    key: Optional[int]
    #: the exception that killed the scan task
    error: BaseException
    #: True when the failure came from the fault-injection framework
    injected: bool = False


@dataclass
class PartialScanResult:
    """What a degraded-aware scan produced: survivors plus typed failures.

    ``results`` is aligned with the scanned items (``None`` at failed
    positions) so multi-phase callers can keep partition bookkeeping;
    :meth:`completed` gives the surviving values in partition order.
    """

    results: List[Any]
    failures: List[PartitionFailure] = field(default_factory=list)
    #: speculative re-executions launched by the straggler watchdog
    speculated: int = 0

    @property
    def ok(self) -> bool:
        """True when every partition scanned cleanly."""
        return not self.failures

    @property
    def failed_indices(self) -> List[int]:
        return [failure.index for failure in self.failures]

    @property
    def failed_keys(self) -> List[int]:
        """Keys of the failed partitions (those that carried one)."""
        return [failure.key for failure in self.failures if failure.key is not None]

    def completed(self) -> List[Any]:
        """The surviving results, in partition order."""
        failed = set(self.failed_indices)
        return [value for index, value in enumerate(self.results) if index not in failed]

    def fail(self, index: int, key: Optional[int], error: BaseException) -> None:
        """Record partition ``index`` as failed; failures stay in partition order.

        A caller that finds a partition's result unusable after the scan
        (ISLA's Calculation, for a block that does not converge) records it
        here, exactly as if the error had escaped the partition task.
        """
        from repro.errors import InjectedFault

        obs.counter("faults.partition.failed")
        self.results[index] = None
        self.failures.append(
            PartitionFailure(
                index=index,
                key=key,
                error=error,
                injected=isinstance(error, InjectedFault),
            )
        )
        self.failures.sort(key=lambda failure: failure.index)


class ScanPool:
    """A bounded thread pool that maps ordered partition work.

    The pool executes *shards* — contiguous runs of partitions — so the
    per-task Python overhead is amortised while per-partition random
    streams keep results independent of the shard split.  Results always
    come back in partition order.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max(1, int(max_workers if max_workers is not None else default_parallelism()))
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ API
    def scan_partial(
        self,
        function: Callable[[U], T],
        items: Sequence[U],
        parallelism: int,
        *,
        table: Optional[str] = None,
        keys: Optional[Sequence[int]] = None,
        straggler_timeout: Optional[float] = None,
    ) -> PartialScanResult:
        """Degraded-aware scan: per-partition failures are captured, not raised.

        Each item runs through the fault-injection guard (when a plan is
        active) and its own try/except, so one failing partition costs the
        caller *that partition* — never the shard or the scan.  ``keys``
        carries the partitions' stable identifiers (block ids) used both for
        deterministic fault decisions and for the failure report.

        With ``straggler_timeout`` (seconds) set, partitions run as
        individual tasks under a watchdog: any task still running past the
        deadline is speculatively re-executed.  Because partitions own their
        random streams (:mod:`repro.parallel.seeding`), the speculative copy
        is bit-identical to the original, so whichever finishes first is
        *the* answer — speculation can never change a result.
        """
        items = list(items)
        if keys is not None and len(keys) != len(items):
            raise ValueError(
                f"keys ({len(keys)}) must align with items ({len(items)})"
            )

        def run_one(index: int, item: U) -> T:
            injector = faults.active()
            if injector is not None:
                key = keys[index] if keys is not None else index
                injector.partition_scan(table, key)
            return function(item)

        def failure(result: PartialScanResult, index: int, error: BaseException) -> None:
            result.fail(index, keys[index] if keys is not None else None, error)

        shard_count = max(1, min(int(parallelism), len(items)))
        if shard_count <= 1:
            # Inline on the caller's thread: no pool, no handoff, so
            # parallelism 1 never spins up the executor.
            result = PartialScanResult(results=[None] * len(items))
            for index, item in enumerate(items):
                try:
                    result.results[index] = run_one(index, item)
                except Exception as exc:  # noqa: BLE001 - typed into the report
                    failure(result, index, exc)
            return result

        executor = self._ensure_executor()
        if straggler_timeout is None:
            return self._scan_sharded(executor, run_one, failure, items, shard_count)
        return self._scan_speculative(
            executor, run_one, failure, items, straggler_timeout
        )

    def _scan_sharded(
        self, executor, run_one, failure, items: Sequence, shard_count: int
    ) -> PartialScanResult:
        """Contiguous shards (the fast path), with per-item failure capture."""
        bounds = [
            (len(items) * index) // shard_count for index in range(shard_count + 1)
        ]
        shards = [
            list(range(bounds[i], bounds[i + 1])) for i in range(shard_count)
        ]
        contexts = [contextvars.copy_context() for _ in shards]
        obs.counter("parallel.shards", shard_count)

        def run_shard(indices: Sequence[int], context: contextvars.Context):
            def body():
                outcomes = []
                for index in indices:
                    try:
                        outcomes.append((index, True, run_one(index, items[index])))
                    except Exception as exc:  # noqa: BLE001 - typed into the report
                        outcomes.append((index, False, exc))
                return outcomes

            return context.run(body)

        futures = [
            executor.submit(run_shard, shard, context)
            for shard, context in zip(shards, contexts)
        ]
        result = PartialScanResult(results=[None] * len(items))
        for future in futures:
            for index, ok, value in future.result():
                if ok:
                    result.results[index] = value
                else:
                    failure(result, index, value)
        return result

    def _scan_speculative(
        self, executor, run_one, failure, items: Sequence, straggler_timeout: float
    ) -> PartialScanResult:
        """Per-item tasks under a straggler watchdog.

        Items whose first attempt is still running ``straggler_timeout``
        seconds after the scan started get one speculative duplicate; the
        first attempt to finish (either copy) resolves the item.
        """
        result = PartialScanResult(results=[None] * len(items))

        def submit(index: int) -> Future:
            context = contextvars.copy_context()
            return executor.submit(context.run, run_one, index, items[index])

        attempts: dict = {index: [submit(index)] for index in range(len(items))}
        unresolved = set(attempts)
        speculated: set = set()
        deadline = time.monotonic() + straggler_timeout
        while unresolved:
            pending = [
                future
                for index in unresolved
                for future in attempts[index]
                if not future.done()
            ]
            timeout = max(0.0, deadline - time.monotonic()) if not speculated else None
            if pending:
                wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            for index in sorted(unresolved):
                done = next((f for f in attempts[index] if f.done()), None)
                if done is None:
                    continue
                unresolved.discard(index)
                error = done.exception()
                if error is not None:
                    failure(result, index, error)
                else:
                    result.results[index] = done.result()
            if unresolved and not speculated and time.monotonic() >= deadline:
                # The watchdog fires once: every still-running partition gets
                # exactly one speculative duplicate.
                for index in sorted(unresolved):
                    attempts[index].append(submit(index))
                    speculated.add(index)
                obs.counter("faults.speculated", len(speculated))
        result.speculated = len(speculated)
        return result

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ScanPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------ internals
    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-scan",
                )
                obs.gauge("parallel.pool.size", self.max_workers)
            return self._executor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._executor is not None else "idle"
        return f"ScanPool(max_workers={self.max_workers}, {state})"


_shared_lock = threading.Lock()
_shared_pool: Optional[ScanPool] = None


def shared_scan_pool() -> ScanPool:
    """The process-wide scan pool (lazily created).

    Engine executors and serving workers all scan through this one pool, so
    concurrent queries share the machine instead of multiplying thread
    counts (``serve`` workers × scan parallelism).
    """
    global _shared_pool
    with _shared_lock:
        if _shared_pool is None:
            _shared_pool = ScanPool()
        return _shared_pool


def reset_shared_scan_pool() -> None:
    """Drop (and shut down) the shared pool — used by tests and benchmarks."""
    global _shared_pool
    with _shared_lock:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.close()
