"""The AQP engine facade: catalog + parser + planner + executor."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.config import ISLAConfig
from repro.query.executor import ExecutionResult, QueryExecutor
from repro.query.parser import parse_query
from repro.query.planner import QueryPlan, plan_query
from repro.storage.blockstore import BlockStore
from repro.storage.catalog import Catalog
from repro.storage.persist import DurableBlockStore, save_store
from repro.storage.table import Table

__all__ = ["AQPEngine"]


class AQPEngine:
    """A session-style facade tying the whole system together.

    Example
    -------
    >>> engine = AQPEngine(seed=7)
    >>> engine.register_array("readings", values, block_count=10)
    >>> result = engine.execute(
    ...     "SELECT AVG(value) FROM readings PRECISION 0.5 CONFIDENCE 0.95"
    ... )
    >>> round(result.value, 1)  # doctest: +SKIP
    100.0
    """

    def __init__(
        self,
        config: Optional[ISLAConfig] = None,
        seed: Optional[int] = None,
        telemetry: Optional[obs.Telemetry] = None,
        parallelism: Optional[int] = None,
    ) -> None:
        self.catalog = Catalog()
        self.config = config or ISLAConfig()
        # ``parallelism`` is a convenience override: every plan built from
        # this engine shards its partition scan at that width.  Seeded
        # answers stay bit-identical across widths (partition streams never
        # depend on worker count), so flipping this knob cannot change any
        # result — see repro.parallel.seeding.
        if parallelism is not None:
            self.config = self.config.with_updates(parallelism=parallelism)
        self.seed = seed
        self._executor = QueryExecutor(seed=seed)
        # durable backings by (lower-cased) table name; appends to these
        # tables go through the write-ahead log before touching memory
        self._durable: dict[str, DurableBlockStore] = {}
        # Precedence: explicit instance > config toggle > ambient default.
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry is not None:
            self.telemetry = obs.Telemetry(enabled=self.config.telemetry)
        else:
            self.telemetry = None

    # ---------------------------------------------------------- registration
    def register_store(self, store: BlockStore, name: Optional[str] = None) -> None:
        """Register an existing block store as a queryable table."""
        self.catalog.register(store, name)

    def register_table(self, table: Table, block_count: int = 10) -> None:
        """Partition a table into blocks and register it."""
        store = BlockStore.from_table(table, block_count=block_count)
        self.catalog.register(store)

    def register_array(
        self,
        name: str,
        values: Sequence[float],
        block_count: int = 10,
        column: str = "value",
    ) -> None:
        """Partition a flat array into blocks and register it."""
        store = BlockStore.from_array(name, np.asarray(values, dtype=float),
                                      block_count=block_count, column=column)
        self.catalog.register(store)

    def append_array(self, name: str, values: Sequence[float]) -> int:
        """Append rows to a registered table as a new block (online ingest).

        Tables opened from (or saved to) durable storage append through
        the write-ahead log first, so a crash mid-append recovers to the
        last consistent state on the next :meth:`open`.  Bumps the table's
        catalog version so precision-aware result caches treat every
        previously cached answer for the table as stale.  Returns the new
        version.
        """
        durable = self._durable.get(name.lower())
        if durable is not None:
            durable.append_block(np.asarray(values, dtype=float))
        else:
            store = self.catalog.resolve(name)
            store.append_block(np.asarray(values, dtype=float))
        return self.catalog.touch(name)

    # ------------------------------------------------------- durable storage
    def open(
        self,
        directory,
        name: Optional[str] = None,
        mmap: bool = True,
        verify: bool = False,
    ) -> str:
        """Open a durable on-disk store and register it as a queryable table.

        Blocks are memory-mapped by default (``np.memmap``), so opening a
        multi-GB store is near-instant and scans stream from the page
        cache.  Any appends the write-ahead log preserved across a crash
        are replayed, each one ``touch``-ing the catalog so the recovered
        table version matches what a never-crashed process would carry.
        With ``verify=True`` block files are CRC-checked against the
        manifest and corrupt blocks quarantined, so queries over the table
        answer degraded instead of reading corrupted bytes.
        Returns the registered table name.
        """
        durable = DurableBlockStore.open(directory, mmap=mmap, verify=verify)
        key = (name or durable.store.name).lower()
        # register at the *snapshot* version, then touch once per recovered
        # append — subscribers observe recovery exactly as live appends
        snapshot_version = durable.table_version - durable.recovered_appends
        self.catalog.register(durable.store, name=key, version=snapshot_version)
        for _ in range(durable.recovered_appends):
            self.catalog.touch(key)
        durable.table_version = self.catalog.version(key)
        previous = self._durable.pop(key, None)
        if previous is not None:
            previous.close()
        self._durable[key] = durable
        return key

    def save(self, name: str, directory) -> str:
        """Snapshot a registered table to ``directory`` (atomic, durable).

        The table stays registered and becomes durable-backed: subsequent
        :meth:`append_array` calls are logged crash-safely to the same
        directory.  Returns the table name.
        """
        key = name.lower()
        store = self.catalog.resolve(key)
        durable = self._durable.get(key)
        if durable is not None and durable.store is store:
            durable.checkpoint()
            return key
        version = self.catalog.version(key)
        save_store(store, directory, table_version=version)
        if durable is not None:
            durable.close()
        # the durable handle keeps serving the registered in-memory store;
        # it carries the WAL that makes future appends crash-safe
        self._durable[key] = DurableBlockStore(
            directory=Path(directory), store=store, table_version=version, mmap=False
        )
        return key

    def close(self) -> None:
        """Release durable-storage handles (WAL file descriptors)."""
        for durable in self._durable.values():
            durable.close()
        self._durable.clear()

    def __enter__(self) -> "AQPEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the registered tables."""
        return self.catalog.table_names

    # -------------------------------------------------------------- querying
    def plan(self, statement: str) -> QueryPlan:
        """Parse and plan a statement without executing it (EXPLAIN)."""
        with obs.span("query.parse"):
            query = parse_query(statement)
        with obs.span("query.plan") as sp:
            plan = plan_query(query, self.catalog, base_config=self.config)
            sp.set_tag("method", plan.method)
            sp.set_tag("table", plan.store.name)
        return plan

    def execute(self, statement: str) -> ExecutionResult:
        """Parse, plan and execute a statement.

        With telemetry enabled (``REPRO_TELEMETRY=1``,
        ``ISLAConfig(telemetry=True)`` or an explicit
        :class:`~repro.obs.Telemetry`), the result's ``telemetry`` field
        carries the full span tree of the query lifecycle.
        """
        return self._execute_with(statement, self.telemetry)

    def execute_plan(self, plan: QueryPlan, seed=None) -> ExecutionResult:
        """Execute an already-built plan, optionally with a per-call seed.

        The serving layer plans once (to build cache keys) and executes only
        on a cache miss, passing each query an independent seed derived from
        a ``np.random.SeedSequence`` spawn.
        """
        return self._executor.execute(plan, seed=seed)

    def serve(self, config=None, **kwargs):
        """Create a :class:`~repro.serve.QueryService` bound to this engine.

        Pass a pre-built :class:`~repro.serve.ServeConfig` as ``config``, or
        forward keyword arguments to construct one (``workers``,
        ``max_queue``, ``cache_capacity``, ...).  Remember to ``close()``
        the service (or use it as a context manager).
        """
        from repro.serve import QueryService, ServeConfig

        if config is not None and kwargs:
            raise TypeError("pass either a config or ServeConfig kwargs, not both")
        return QueryService(self, config or ServeConfig(**kwargs))

    def explain(self, statement: str) -> str:
        """Return the plan description for a statement."""
        return self.plan(statement).describe()

    def explain_analyze(self, statement: str) -> str:
        """Execute the statement and render the plan with observed timings.

        Telemetry is force-enabled for this one execution regardless of the
        engine-wide switch; the report contains the logical plan, the answer,
        the span tree with per-stage wall-clock timings, and the derived
        counters (ISLA iterations, per-stage sample sizes).
        """
        capture = obs.Telemetry(enabled=True)
        result = self._execute_with(statement, capture)
        plan_description = self.plan(statement).describe()
        return obs.render_explain_analyze(result, plan_description)

    # ------------------------------------------------------------- internals
    def _execute_with(
        self, statement: str, telemetry: Optional[obs.Telemetry]
    ) -> ExecutionResult:
        scope = telemetry.activate() if telemetry is not None else nullcontext()
        with scope:
            with obs.span("query", statement=statement) as root:
                plan = self.plan(statement)
                result = self._executor.execute(plan)
        if root.is_recording:
            result = replace(result, telemetry=obs.QueryTelemetry.from_span(root))
        return result
