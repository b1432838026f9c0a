"""Per-layer timing from outside the program: runtime wrappers on public functions.

The benchmark attributes time to layers without touching ``src/`` and
without reading the engine's own spans: :class:`LayerTracer` replaces each
target function with a wrapper that counts calls and records inclusive
(``busy``) and exclusive (``self``) wall time.  Self time is busy time minus
the busy time of wrapped callees on the same thread, tracked with a
per-thread stack; work a layer hands to another thread (the scan pool) is
charged to that thread's layers, not subtracted from the caller.

A target that no longer resolves raises :class:`LookupError` at
:meth:`LayerTracer.install` -- a renamed layer function is an error, never a
silent zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Dict, List, Tuple

#: layer metric name -> the ``(module, attribute path)`` functions it wraps
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "query.parse": (("repro.query.engine", "parse_query"),),
    "query.plan": (("repro.query.engine", "plan_query"),),
    "query.execute": (("repro.query.executor", "QueryExecutor.execute"),),
    "core.isla": (
        ("repro.core.isla", "ISLAAggregator.aggregate_avg"),
        ("repro.parallel.isla", "PartitionParallelAggregator.aggregate_avg"),
    ),
    "core.pre_estimation": (("repro.core.pre_estimation", "PreEstimator.estimate"),),
    "core.block": (("repro.core.calculation", "BlockCalculator.run"),),
    "core.sampling_phase": (("repro.core.calculation", "sampling_phase"),),
    "core.iteration_phase": (("repro.core.calculation", "iteration_phase"),),
    "core.summarization": (
        ("repro.core.isla", "combine_block_results"),
        ("repro.parallel.isla", "combine_block_results"),
    ),
    "sampling.aggregate": (("repro.sampling.base", "BaselineAggregator.aggregate"),),
    "storage.sample_column": (("repro.storage.block", "Block.sample_column"),),
    "storage.pilot_sample": (("repro.storage.blockstore", "BlockStore.pilot_sample"),),
    "storage.full_column": (("repro.storage.blockstore", "BlockStore.full_column"),),
    "storage.save": (("repro.query.engine", "save_store"),),
    "storage.open": (("repro.storage.persist", "DurableBlockStore.open"),),
    "storage.append": (("repro.storage.persist", "DurableBlockStore.append_block"),),
    "storage.wal_append": (("repro.storage.wal", "WriteAheadLog.append"),),
    "parallel.scan": (("repro.parallel.pool", "ScanPool.scan_partial"),),
    "serve.cache_lookup": (("repro.serve.cache", "ResultCache.lookup"),),
    "serve.cache_put": (("repro.serve.cache", "ResultCache.put"),),
}


def resolve(module_name: str, path: str):
    """Return ``(owner, attribute, original)`` for one target, or raise LookupError.

    ``original`` is the raw object stored on the owner (for a class, the
    entry of its ``__dict__``, so a classmethod stays a classmethod and an
    inherited attribute does not count as defined there).
    """
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}: {parent!r} not found")
    namespace = vars(owner)
    if attribute not in namespace:
        raise LookupError(f"{module_name}.{path}: {attribute!r} not found")
    original = namespace[attribute]
    function = original.__func__ if isinstance(original, classmethod) else original
    if not callable(function):
        raise LookupError(f"{module_name}.{path} is not callable")
    return owner, attribute, original


class _ThreadRecords:
    """One thread's open-call stack and per-layer ``[calls, busy, self]``."""

    __slots__ = ("stack", "records")

    def __init__(self, layers: int) -> None:
        #: busy time of wrapped callees, one entry per open wrapped call
        self.stack: List[float] = []
        self.records = [[0, 0.0, 0.0] for _ in range(layers)]


class LayerTracer:
    """Installs timing wrappers on every target and aggregates their records."""

    def __init__(self) -> None:
        self.targets = TARGETS
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadRecords] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ API
    def install(self) -> None:
        """Wrap every target; raises LookupError (and patches nothing) if one is missing."""
        if self._patches:
            return
        resolved = [
            (name, resolve(module_name, path))
            for name, functions in self.targets.items()
            for module_name, path in functions
        ]
        for name, (owner, attribute, original) in resolved:
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attribute, replacement)
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, busy_s, self_s)`` summed over every thread."""
        with self._lock:
            threads = list(self._threads)
        return {
            name: (
                sum(thread.records[slot][0] for thread in threads),
                sum(thread.records[slot][1] for thread in threads),
                sum(thread.records[slot][2] for thread in threads),
            )
            for slot, name in enumerate(self.targets)
        }

    # ------------------------------------------------------------ internals
    def _new_thread_records(self) -> _ThreadRecords:
        records = _ThreadRecords(len(self.targets))
        with self._lock:
            self._threads.append(records)
        self._local.state = records
        return records

    def _wrap(self, name: str, function):
        # The wrapper runs hundreds of times per query, so it keeps to local
        # lookups: its cost is what trace.overhead_ratio reports.
        local = self._local
        new_thread_records = self._new_thread_records
        slot = list(self.targets).index(name)
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_thread_records()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = state.records[slot]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner

        return wrapper
