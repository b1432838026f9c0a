"""Throughput benchmark for the serving subsystem (shared by CLI + script).

Builds a synthetic multi-table workload with repeated statements (the
serving sweet spot: answers become reusable across queries that ask the
same question with an equal-or-looser error budget), then measures

* a **serial** baseline — one ``engine.execute`` loop, the pre-serving
  code path;
* the **worker pool with the precision-aware cache** (the service as
  deployed);
* optionally the **pool alone** (cache disabled) to isolate concurrency
  from reuse.

Every served answer is verified against the exact ground truth of its
table: the absolute error must be within the requested ``PRECISION``
(checked at the workload's confidence level across the batch).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import StorageError
from repro.query.engine import AQPEngine
from repro.serve.service import QueryService, ServeConfig

__all__ = [
    "build_workload",
    "discover_store_directories",
    "run_throughput_benchmark",
    "format_report",
]


def build_workload(
    tables: Union[int, Sequence[str]],
    repeats: int,
    seed: int,
    precisions: tuple = (0.5, 1.0),
) -> List[str]:
    """Repeated multi-table statements, deterministically shuffled.

    ``tables`` is either a count (synthetic ``serve_t<i>`` names) or the
    explicit table names of a loaded data directory.
    """
    if isinstance(tables, int):
        tables = [f"serve_t{index}" for index in range(tables)]
    unique = [
        f"SELECT AVG(value) FROM {name} PRECISION {precision:g} CONFIDENCE 0.95"
        for name in tables
        for precision in precisions
    ]
    workload = unique * repeats
    np.random.default_rng(seed).shuffle(workload)
    return workload


def discover_store_directories(data_dir: Union[str, Path]) -> List[Path]:
    """Durable-store directories under ``data_dir`` (or itself if it is one)."""
    root = Path(data_dir)
    if (root / "MANIFEST.json").exists():
        return [root]
    found = sorted(path.parent for path in root.glob("*/MANIFEST.json"))
    if not found:
        raise StorageError(f"no durable stores (MANIFEST.json) under {root}")
    return found


def _build_engine(
    table_count: int,
    data_size: int,
    seed: int,
    block_count: int,
    parallelism: Optional[int] = None,
    data_dir: Optional[Union[str, Path]] = None,
) -> AQPEngine:
    engine = AQPEngine(seed=seed, parallelism=parallelism)
    if data_dir is not None:
        for directory in discover_store_directories(data_dir):
            engine.open(directory)
        return engine
    rng = np.random.default_rng(seed)
    for index in range(table_count):
        values = rng.normal(100.0 + 10.0 * index, 20.0, data_size)
        engine.register_array(f"serve_t{index}", values, block_count=block_count)
    return engine


def run_throughput_benchmark(
    data_size: int = 200_000,
    table_count: int = 3,
    repeats: int = 4,
    workers: int = 4,
    seed: int = 0,
    block_count: int = 16,
    include_uncached_pool: bool = True,
    parallelism: Optional[int] = None,
    data_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Run the three configurations over one workload; returns a report dict.

    ``parallelism`` shards every partition scan; serve workers submit their
    shards into the one shared scan pool, so worker threads multiply
    throughput without multiplying scan threads.

    ``data_dir`` serves the workload from durable on-disk stores
    (memory-mapped) instead of synthesising tables, so the bench measures
    the cold-open/mmap read path end to end.
    """
    # ------------------------------------------------------- serial baseline
    engine = _build_engine(table_count, data_size, seed, block_count, parallelism,
                           data_dir)
    tables = list(engine.tables)
    workload = build_workload(tables, repeats, seed)
    truths = {}
    for name in tables:
        truths[name] = engine.catalog.resolve(name).exact_mean()
    if data_dir is not None:
        data_size = engine.catalog.resolve(tables[0]).total_rows
    start = time.perf_counter()
    serial_results = [engine.execute(statement) for statement in workload]
    serial_seconds = time.perf_counter() - start
    engine.close()

    # ------------------------------------------------- worker pool + cache
    engine = _build_engine(table_count, data_size, seed, block_count, parallelism,
                           data_dir)
    service = QueryService(
        engine,
        ServeConfig(workers=workers, max_queue=max(len(workload), 1), seed=seed),
    )
    with service:
        start = time.perf_counter()
        outcomes = service.execute_many(workload)
        pool_seconds = time.perf_counter() - start
        stats = service.stats()
    engine.close()

    # --------------------------------------------------- pool, cache off
    uncached_seconds: Optional[float] = None
    if include_uncached_pool:
        engine = _build_engine(table_count, data_size, seed, block_count, parallelism,
                               data_dir)
        with QueryService(
            engine,
            ServeConfig(
                workers=workers,
                max_queue=max(len(workload), 1),
                cache_enabled=False,
                seed=seed,
            ),
        ) as uncached:
            start = time.perf_counter()
            uncached_outcomes = uncached.execute_many(workload)
            uncached_seconds = time.perf_counter() - start
        engine.close()
        assert all(outcome.ok for outcome in uncached_outcomes)

    # ------------------------------------------------------- verification
    # Two distinct properties are checked:
    #
    # * statistical — every *execution* must land within its requested
    #   precision vs exact ground truth, up to the workload's confidence
    #   level (a 95%-confidence answer legitimately misses ~5% of the
    #   time).  Cache hits re-serve a single execution many times, so the
    #   miss rate is measured over executions, not served queries —
    #   otherwise one tail-event execution amplified by the cache would
    #   dominate the count.
    # * contract — a cache/coalesced hit may only be served when its
    #   achieved half-width is <= the requested precision at >= the
    #   requested confidence.  This is deterministic: any violation is a
    #   serving-layer bug, never statistical noise.
    violations = 0
    executed = 0
    executed_misses = 0
    contract_violations = 0
    served_without_execution = 0
    for outcome, statement in zip(outcomes, workload):
        assert outcome.ok, f"serving failed for {statement!r}: {outcome.error}"
        result = outcome.result
        requested_precision = float(statement.split("PRECISION")[1].split()[0])
        missed = abs(result.value - truths[result.table]) > requested_precision
        if missed:
            violations += 1
        if outcome.cache_hit:
            served_without_execution += 1
            achieved = result.details.get("achieved_precision")
            confidence = result.details.get("achieved_confidence")
            if (
                achieved is None
                or achieved > requested_precision + 1e-12
                or confidence is None
                or confidence < result.details["requested_confidence"] - 1e-12
            ):
                contract_violations += 1
        else:
            executed += 1
            if missed:
                executed_misses += 1

    queries = len(workload)
    return {
        "queries": queries,
        "data_size": data_size,
        "tables": len(tables),
        "data_dir": str(data_dir) if data_dir is not None else None,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "pool_cached_seconds": pool_seconds,
        "pool_uncached_seconds": uncached_seconds,
        "speedup_cached": serial_seconds / pool_seconds if pool_seconds > 0 else float("inf"),
        "serial_qps": queries / serial_seconds,
        "pool_cached_qps": queries / pool_seconds,
        # served from the cache or coalesced onto an identical in-flight
        # execution — either way, answered without touching a block
        "cache_hit_rate": served_without_execution / queries if queries else 0.0,
        "cache": stats["cache"],
        "coalesced": stats["coalesced"],
        "precision_violations": violations,
        "executed": executed,
        "executed_misses": executed_misses,
        "contract_violations": contract_violations,
        "serial_answers": len(serial_results),
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_throughput_benchmark` output."""
    lines = [
        "serve throughput benchmark",
        f"  workload:        {report['queries']} queries over {report['tables']} tables "
        f"({report['data_size']} rows each)",
    ]
    if report.get("data_dir"):
        lines.append(
            f"  data dir:        {report['data_dir']} (durable stores, mmap scans)"
        )
    lines += [
        f"  serial loop:     {report['serial_seconds']:.3f}s "
        f"({report['serial_qps']:.1f} q/s)",
        f"  pool + cache:    {report['pool_cached_seconds']:.3f}s "
        f"({report['pool_cached_qps']:.1f} q/s, {report['workers']} workers, "
        f"{report['cache_hit_rate']:.0%} cache hits)",
    ]
    if report["pool_uncached_seconds"] is not None:
        lines.append(
            f"  pool, no cache:  {report['pool_uncached_seconds']:.3f}s "
            f"({report['queries'] / report['pool_uncached_seconds']:.1f} q/s)"
        )
    lines.append(f"  speedup (cached pool vs serial): {report['speedup_cached']:.2f}x")
    lines.append(
        f"  precision violations vs exact ground truth: "
        f"{report['precision_violations']}/{report['queries']} served "
        f"({report['executed_misses']}/{report['executed']} executions, "
        f"{report['contract_violations']} cache-contract violations)"
    )
    return "\n".join(lines)
