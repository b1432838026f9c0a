"""Time-constrained execution — paper Section VII-F.

Some deployments bound the *latency* rather than the precision.  The paper's
recipe: learn the relationship between sample size and runtime from the
workload, size the sample to the time budget, then report the precision that
sample size can guarantee.  The implementation calibrates throughput with a
tiny timed pilot run, converts the remaining budget into an affordable sample
size, and runs the normal ISLA pipeline with that sampling rate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro import obs
from repro.core.boundaries import DataBoundaries
from repro.core.calculation import sampling_phase
from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.core.pre_estimation import PreEstimator
from repro.core.result import AggregateResult
from repro.errors import TimeBudgetExceeded
from repro.stats.confidence import half_width
from repro.storage.blockstore import BlockStore

__all__ = ["TimeConstrainedAggregator"]

#: fraction of the budget reserved for calibration + bookkeeping
_OVERHEAD_FRACTION = 0.25
#: sample size of the timed calibration run
_CALIBRATION_SAMPLES = 2000


class TimeConstrainedAggregator:
    """Run ISLA within a wall-clock budget, reporting the achieved precision."""

    def __init__(
        self,
        config: Optional[ISLAConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or ISLAConfig()
        self._seed = seed if seed is not None else self.config.seed

    def aggregate_within(
        self,
        store: BlockStore,
        column: Optional[str] = None,
        *,
        budget_seconds: float,
        rng: Optional[np.random.Generator] = None,
    ) -> AggregateResult:
        """Aggregate AVG(column) spending at most roughly ``budget_seconds``.

        Raises
        ------
        TimeBudgetExceeded
            If the budget cannot accommodate even a minimal sample.
        """
        if budget_seconds <= 0:
            raise TimeBudgetExceeded(f"budget must be positive, got {budget_seconds}")
        column = store.validate_column(column)
        generator = rng if rng is not None else np.random.default_rng(self._seed)
        with obs.stopwatch(
            "timed.aggregate", table=store.name, budget_seconds=budget_seconds
        ) as watch:
            # Pre-estimation is needed regardless; it also tells us sigma.
            estimate = PreEstimator(self.config).estimate(store, column, generator)
            boundaries = DataBoundaries.from_sketch(
                estimate.sketch0, estimate.sigma, p1=self.config.p1, p2=self.config.p2
            )

            # Calibrate throughput: time a small sampling pass over the first
            # block.
            first_block = store.blocks[0]
            calibration_rate = min(1.0, _CALIBRATION_SAMPLES / max(1, first_block.size))
            with obs.stopwatch("timed.calibrate", block=first_block.block_id) as cal:
                sampling_phase(
                    first_block, column, calibration_rate, boundaries, generator
                )
            calibration_elapsed = max(cal.elapsed_seconds, 1e-6)
            rows_timed = max(1, int(round(calibration_rate * first_block.size)))
            seconds_per_row = calibration_elapsed / rows_timed

            usable = (budget_seconds - watch.elapsed_seconds) * (1.0 - _OVERHEAD_FRACTION)
            if usable <= 0:
                raise TimeBudgetExceeded(
                    f"budget of {budget_seconds:.3f}s exhausted during calibration"
                )
            affordable_rows = int(usable / seconds_per_row)
            if affordable_rows < store.block_count:
                raise TimeBudgetExceeded(
                    f"budget of {budget_seconds:.3f}s only affords {affordable_rows} "
                    f"samples across {store.block_count} blocks"
                )
            affordable_rows = min(affordable_rows, store.total_rows)
            rate = affordable_rows / store.total_rows

            # The precision this sample size can actually guarantee
            # (Definition 1).
            achieved_precision = half_width(
                estimate.sigma, max(2, affordable_rows), self.config.confidence
            )
            config = self.config.with_updates(precision=max(achieved_precision, 1e-12))
            aggregator = ISLAAggregator(config, seed=self._seed)
            result = aggregator.aggregate_avg(
                store, column, rate=rate, rng=generator, pre_estimate=estimate
            )
            watch.set_tag("affordable_rows", affordable_rows)
            watch.set_tag("achieved_precision", achieved_precision)
        # Report the end-to-end latency of the constrained run; the scan's
        # degradation tags carry over unchanged.
        return replace(
            result, method="ISLA-timed", elapsed_seconds=watch.elapsed_seconds
        )
