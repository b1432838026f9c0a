"""Benchmark logic for the partition scan's parallelism.

``benchmarks/bench_parallel_scan.py`` is a thin CLI over this module so the
measurement code is importable (and unit-testable) like everything else.

Two things are measured on one multi-block table:

* **throughput** — wall-clock of the inline scan (parallelism 1: every
  partition task on the caller's thread, the default) versus the same scan
  sharded across the pool at increasing parallelism (best-of-``repeats``
  to damp scheduler noise);
* **determinism** — the same seed must give bit-identical estimates and CI
  bounds at parallelism 1, 2 and 4 (the contract of
  :mod:`repro.parallel.seeding`).

The determinism check is unconditional.  The speed check needs at least two
usable cores to be physically winnable, so :func:`run_benchmark` reports
``speedup_expected`` and the smoke harness only enforces "sharded beats
inline" when the machine can deliver it (CI runners can; a 1-core container
cannot).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.parallel.pool import ScanPool
from repro.storage.blockstore import BlockStore

__all__ = ["BenchReport", "build_bench_store", "run_benchmark", "format_report"]

#: parallelism levels the determinism contract is asserted over
DETERMINISM_LEVELS: Tuple[int, ...] = (1, 2, 4)


@dataclass
class BenchReport:
    """Everything one benchmark run measured."""

    rows: int
    blocks: int
    #: best wall-clock of the inline scan (parallelism 1)
    inline_seconds: float
    parallel_seconds: Dict[int, float] = field(default_factory=dict)
    deterministic: bool = False
    determinism_values: Dict[int, float] = field(default_factory=dict)
    determinism_bounds: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    speedup_expected: bool = False

    @property
    def best_parallel_seconds(self) -> float:
        return min(self.parallel_seconds.values())

    @property
    def speedup(self) -> float:
        """Inline wall-clock over the best sharded wall-clock."""
        return self.inline_seconds / max(self.best_parallel_seconds, 1e-12)

    @property
    def parallel_beats_inline(self) -> bool:
        return self.best_parallel_seconds < self.inline_seconds

    def passed(self) -> bool:
        """The smoke criterion: determinism always, speed when winnable."""
        if not self.deterministic:
            return False
        if self.speedup_expected and not self.parallel_beats_inline:
            return False
        return True


def build_bench_store(
    rows: int, blocks: int, seed: int = 0, name: str = "bench"
) -> BlockStore:
    """A multi-block table with per-block mean drift (non-trivial to sample)."""
    rng = np.random.default_rng(seed)
    per_block = max(1, rows // blocks)
    arrays = [
        rng.normal(100.0 + 3.0 * index, 20.0, size=per_block)
        for index in range(blocks)
    ]
    return BlockStore.from_block_arrays(name, arrays)


def _time_best(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    rows: int = 400_000,
    blocks: int = 16,
    seed: int = 42,
    repeats: int = 3,
    parallelism_levels: Sequence[int] = (2, 4),
    config: Optional[ISLAConfig] = None,
) -> BenchReport:
    """Benchmark the inline ISLA scan against sharded scans on one table."""
    store = build_bench_store(rows, blocks, seed=seed)
    config = config or ISLAConfig(precision=0.5)
    report = BenchReport(
        rows=store.total_rows,
        blocks=store.block_count,
        inline_seconds=0.0,
        speedup_expected=(os.cpu_count() or 1) >= 2,
    )

    with ScanPool(max_workers=max(parallelism_levels)) as pool:
        def aggregator(level: int) -> ISLAAggregator:
            return ISLAAggregator(config, seed=seed, pool=pool, parallelism=level)

        inline = aggregator(1)
        report.inline_seconds = _time_best(lambda: inline.aggregate_avg(store), repeats)
        for level in parallelism_levels:
            sharded = aggregator(level)
            report.parallel_seconds[level] = _time_best(
                lambda: sharded.aggregate_avg(store), repeats
            )

        # Determinism: same seed, varying parallelism — values and CI bounds
        # must be bit-identical, not merely approximately equal.
        for level in DETERMINISM_LEVELS:
            result = aggregator(level).aggregate_avg(store)
            report.determinism_values[level] = result.value
            report.determinism_bounds[level] = (
                result.interval.low,
                result.interval.high,
            )

    values = set(report.determinism_values.values())
    bounds = set(report.determinism_bounds.values())
    report.deterministic = len(values) == 1 and len(bounds) == 1
    return report


def format_report(report: BenchReport) -> str:
    """Human-readable benchmark report."""
    lines: List[str] = [
        f"parallel scan benchmark — {report.rows} rows in {report.blocks} blocks",
        f"  inline (p=1)      {report.inline_seconds * 1000.0:8.1f} ms",
    ]
    for level in sorted(report.parallel_seconds):
        seconds = report.parallel_seconds[level]
        lines.append(
            f"  parallelism={level:<3d}   {seconds * 1000.0:8.1f} ms"
            f"  ({report.inline_seconds / max(seconds, 1e-12):4.2f}x)"
        )
    lines.append(
        f"  determinism (p={list(DETERMINISM_LEVELS)}): "
        + ("bit-identical" if report.deterministic else "MISMATCH "
           + repr(report.determinism_values))
    )
    if not report.speedup_expected:
        lines.append(
            "  speed check skipped: single usable core "
            "(os.cpu_count() < 2), a sharded scan cannot beat the inline one here"
        )
    lines.append("  PASS" if report.passed() else "  FAIL")
    return "\n".join(lines)
