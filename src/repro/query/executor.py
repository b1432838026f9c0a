"""Physical execution of a query plan."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.core.isla import ISLAAggregator
from repro.errors import PartialResultError, QueryPlanError, SamplingError
from repro.parallel.pool import shared_scan_pool
from repro.query.planner import QueryPlan
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

__all__ = ["ExecutionResult", "QueryExecutor"]


@dataclass(frozen=True)
class ExecutionResult:
    """Uniform wrapper around whatever estimator answered the query."""

    value: float
    method: str
    aggregate: str
    column: str
    table: str
    sample_size: int
    elapsed_seconds: float
    details: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None
    #: per-query span tree + derived counters (None when telemetry is off)
    telemetry: Optional[obs.QueryTelemetry] = None
    #: True when the answer was re-estimated from surviving partitions
    #: (failed or quarantined blocks) with a correspondingly wider CI
    degraded: bool = False
    #: block ids of the partitions that did not contribute to this answer
    failed_partitions: Tuple[int, ...] = ()
    #: fraction of the table's rows that backed this answer (1.0 = all)
    sample_fraction: float = 1.0

    def error_against(self, truth: float) -> float:
        """Absolute error against a known ground truth."""
        return abs(self.value - truth)


#: baseline estimator classes, keyed by the method identifier of the dialect
_BASELINES = {
    "US": UniformAggregator,
    "STS": StratifiedAggregator,
    "MV": MeasureBiasedValueAggregator,
    "MVB": MeasureBiasedBoundaryAggregator,
    "SLEV": SlevAggregator,
    "BILEVEL": BiLevelAggregator,
    "BLOCK": BlockLevelAggregator,
    "EBS": ErrorBoundedStratifiedAggregator,
}


def _degradation(
    store,
    degraded: bool = False,
    failed: Tuple[int, ...] = (),
    fraction: float = 1.0,
) -> Dict[str, Any]:
    """Fold store-level quarantine into scan-level degradation tags.

    Blocks quarantined at open time (CRC mismatch on the durable read path)
    never entered the store, so every answer over such a table is degraded:
    they join the failed-partition list and shrink the effective sample
    fraction by their share of the original rows.
    """
    quarantined = tuple(getattr(store, "quarantined", ()) or ())
    if quarantined:
        degraded = True
        failed = tuple(sorted(set(failed) | set(quarantined)))
        lost_rows = int(getattr(store, "quarantined_rows", 0))
        original_rows = store.total_rows + lost_rows
        if original_rows > 0:
            fraction = fraction * store.total_rows / original_rows
    if degraded:
        obs.counter("degraded.results")
    return {
        "degraded": degraded,
        "failed_partitions": tuple(failed),
        "sample_fraction": fraction,
    }


def _exact_scan(
    store, column: str, aggregate: str, parallelism: int
) -> Tuple[float, int, Tuple[bool, Tuple[int, ...], float]]:
    """Exact ``(value, rows, scan health)`` from per-block partial sums.

    Every block is a partition task of the scan pool, so fault plans reach
    EXACT as they reach the estimators.  Failed partitions are left out: the
    answer is the AVG over the surviving rows (SUM scales it by the table's
    rows, as the sampling baselines do) and is tagged degraded.  Healthy
    scans merge the partial sums in block order.
    """
    store = store.snapshot()
    blocks = store.blocks

    def partial(block) -> Tuple[float, int]:
        values = block.column(column)
        return float(values.sum()), int(values.size)

    scan = shared_scan_pool().scan_partial(
        partial,
        blocks,
        parallelism,
        table=store.name,
        keys=[block.block_id for block in blocks],
    )
    partials = scan.completed()
    if scan.failures and not partials:
        raise PartialResultError(
            f"every partition of {store.name!r} failed "
            f"({len(scan.failures)} failures, first: {scan.failures[0].error!r})"
        )
    rows = sum(count for _, count in partials)
    if rows == 0:
        raise SamplingError(f"store {store.name!r} has no rows")
    total = sum(piece for piece, _ in partials)
    if scan.ok:
        return (total if aggregate == "sum" else total / rows), rows, (False, (), 1.0)
    avg = total / rows
    value = avg * store.total_rows if aggregate == "sum" else avg
    return value, rows, (True, tuple(sorted(scan.failed_keys)), rows / store.total_rows)


class QueryExecutor:
    """Executes a :class:`QueryPlan` with the requested estimation method."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed

    def execute(self, plan: QueryPlan, seed: Optional[Any] = None) -> ExecutionResult:
        """Run the plan and wrap the answer in an :class:`ExecutionResult`.

        ``seed`` overrides the executor-wide seed for this one call.  The
        serving layer passes an independent ``np.random.SeedSequence`` child
        per submitted query, so concurrent queries never share (or repeat)
        a random stream while staying reproducible per submission order.

        The execution runs inside a ``query.execute`` span; when the active
        telemetry is enabled and this is the outermost span (i.e. the executor
        is used directly rather than through :class:`AQPEngine`), the span
        tree is attached to the result's ``telemetry`` field.
        """
        if seed is None:
            seed = self.seed
        with obs.stopwatch(
            "query.execute",
            method=plan.method,
            table=plan.store.name,
            aggregate=plan.query.aggregate,
        ) as watch:
            result = self._dispatch(plan, watch, seed)
        root = watch.span
        if root is not None and result.telemetry is None:
            result = replace(result, telemetry=obs.QueryTelemetry.from_span(root))
        return result

    # ------------------------------------------------------------ internals
    def _dispatch(
        self, plan: QueryPlan, watch: obs.Stopwatch, seed: Optional[Any]
    ) -> ExecutionResult:
        """Run the plan's method; every method scans through the partition pool.

        ``config.parallelism`` only sets how many shards run concurrently
        (``None`` runs the partition tasks inline), so answers are
        bit-identical at every setting.
        """
        method = plan.method
        query = plan.query
        parallelism = plan.config.parallelism or 1
        # (degraded, failed partitions, sample fraction) of the scan itself
        scan_health: Tuple[bool, Tuple[int, ...], float] = (False, (), 1.0)
        raw: Any = None

        if query.time_budget_ms is not None:
            raw = self._execute_time_constrained(plan, seed)
            method, value, sample_size = raw.method, raw.value, raw.sample_size
            if query.aggregate == "sum":
                value *= raw.data_size
            details = {**raw.to_dict(), "time_budget_ms": query.time_budget_ms}
            scan_health = (raw.degraded, raw.failed_partitions, raw.sample_fraction)
        elif method == "EXACT":
            value, sample_size, scan_health = _exact_scan(
                plan.store, plan.column, query.aggregate, parallelism
            )
            details = {
                "full_scan": True,
                "parallelism": parallelism,
                "partitions": plan.store.block_count,
            }
        elif method == "ISLA":
            aggregator = ISLAAggregator(plan.config, seed=seed)
            if query.aggregate == "avg":
                raw = aggregator.aggregate_avg(plan.store, plan.column)
            else:
                raw = aggregator.aggregate_sum(plan.store, plan.column)
            value, sample_size = raw.value, raw.sample_size
            details = {
                **raw.to_dict(),
                "parallelism": aggregator.parallelism,
                "partitions": len(raw.block_results) + len(raw.failed_partitions),
            }
            scan_health = (raw.degraded, raw.failed_partitions, raw.sample_fraction)
        elif method in _BASELINES:
            raw = _BASELINES[method](seed=seed).aggregate(
                plan.store,
                plan.column,
                precision=plan.config.precision,
                confidence=plan.config.confidence,
                parallelism=parallelism,
            )
            value, sample_size = raw.value, raw.sample_size
            if query.aggregate == "sum":
                value *= plan.store.total_rows
            details = dict(raw.details)
            scan_health = (
                bool(details.get("degraded", False)),
                tuple(details.get("failed_partitions", ())),
                float(details.get("sample_fraction", 1.0)),
            )
        else:
            raise QueryPlanError(f"no executor registered for method {method!r}")

        return ExecutionResult(
            value=value,
            method=method,
            aggregate=query.aggregate,
            column=plan.column,
            table=plan.store.name,
            sample_size=sample_size,
            elapsed_seconds=watch.elapsed_seconds,
            details=details,
            raw=raw,
            **_degradation(plan.store, *scan_health),
        )

    def _execute_time_constrained(self, plan: QueryPlan, seed: Optional[Any] = None):
        """Delegate to the time-constrained extension (Section VII-F).

        A blown budget propagates as :class:`~repro.errors.TimeBudgetExceeded`
        — it is a runtime failure of the execution, not a planning error.
        """
        from repro.extensions.time_constraint import TimeConstrainedAggregator

        budget_seconds = (plan.query.time_budget_ms or 0.0) / 1000.0
        aggregator = TimeConstrainedAggregator(plan.config, seed=seed)
        return aggregator.aggregate_within(
            plan.store, plan.column, budget_seconds=budget_seconds
        )
