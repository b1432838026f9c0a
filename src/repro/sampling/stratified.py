"""Stratified sampling (STS) with blocks as strata."""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["StratifiedAggregator"]

Allocation = Literal["proportional", "neyman"]


class StratifiedAggregator(BaselineAggregator):
    """Stratified sampling treating every block as a stratum.

    Two allocation rules are supported:

    * ``proportional`` — each stratum receives samples proportional to its
      size (this is the STS baseline of the paper's Table V / Section VIII-F).
    * ``neyman`` — samples proportional to ``N_h * sigma_h`` (requires a small
      per-block pilot to estimate the within-stratum deviation).

    The estimate is the stratified mean ``sum(N_h/N * mean_h)``.
    """

    method = "STS"
    #: stream 0 draws the Neyman pilot, stream 1 the stratum sample
    streams_per_partition = 2

    def __init__(
        self,
        allocation: Allocation = "proportional",
        pilot_per_block: int = 200,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if allocation not in ("proportional", "neyman"):
            raise SamplingError(f"unknown allocation {allocation!r}")
        if pilot_per_block <= 1:
            raise SamplingError("pilot_per_block must exceed 1")
        self.allocation = allocation
        self.pilot_per_block = pilot_per_block

    def _estimate(self, scan: PartitionScan):
        column = scan.column
        sizes = scan.store.block_sizes()
        total_rows = sizes.sum()
        budget = max(1, int(round(scan.rate * total_rows)))
        allocations = self._allocate(scan, sizes, budget)

        def stratum_mean(block, share, rng) -> Tuple[float, int]:
            if block.size == 0:
                return 0.0, 0
            sample = block.sample_column(column, int(share), rng)
            return float(sample.mean()), int(sample.size)

        strata = scan.map(stratum_mean, allocations, stream=1)
        drawn = sum(count for _, count in strata)
        if drawn == 0:
            raise SamplingError("stratified sampling produced an empty sample")
        weights = sizes / total_rows
        stratum_means = np.array([mean for mean, _ in strata])
        estimate = float((weights * stratum_means).sum())
        return estimate, drawn, {
            "allocation": self.allocation,
            "per_stratum": [int(a) for a in allocations],
        }

    # ------------------------------------------------------------ allocation
    def _allocate(
        self, scan: PartitionScan, sizes: np.ndarray, budget: int
    ) -> np.ndarray:
        if self.allocation == "proportional":
            raw = budget * sizes / sizes.sum()
        else:
            column, pilot = scan.column, self.pilot_per_block

            def deviation(block, rng) -> float:
                if block.size == 0:
                    return 0.0
                share = min(pilot, max(2, block.size))
                return float(block.sample_column(column, share, rng).std())

            weights = sizes * np.asarray(scan.map(deviation, stream=0))
            if weights.sum() == 0.0:
                weights = sizes
            raw = budget * weights / weights.sum()
        return np.maximum(1, np.round(raw)).astype(int)
