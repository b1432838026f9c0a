"""Bi-level Bernoulli sampling (reference [1], Haas 2004), simplified.

The bi-level scheme first decides per block how aggressively to sample it
(blocks with larger local variance get more rows), then draws row-level
Bernoulli samples inside the chosen blocks.  It is listed in the paper's
related work as the technique that considers *local variance* but not
*individual differences*; we implement it both as an extra baseline and as
the basis for the non-i.i.d. sampling-rate extension (Section VII-C).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["BiLevelAggregator"]


class BiLevelAggregator(BaselineAggregator):
    """Variance-aware per-block sampling rates with a weighted combination."""

    method = "BILEVEL"
    #: stream 0 draws the variance pilot, stream 1 the block sample
    streams_per_partition = 2

    def __init__(self, pilot_per_block: int = 200, seed: Optional[int] = None) -> None:
        super().__init__(seed=seed)
        if pilot_per_block <= 1:
            raise SamplingError("pilot_per_block must exceed 1")
        self.pilot_per_block = int(pilot_per_block)

    def _estimate(self, scan: PartitionScan):
        column, pilot = scan.column, self.pilot_per_block
        sizes = scan.store.block_sizes()
        total_rows = float(sizes.sum())
        budget = max(1, int(round(scan.rate * total_rows)))

        def variance(block, rng) -> float:
            if block.size == 0:
                return 0.0
            share = min(pilot, max(2, block.size))
            return float(block.sample_column(column, share, rng).var())

        # Block leverages follow the paper's Section VII-C formula:
        #   blev_i = (1 + sigma_i^2) / (b + sum(sigma_j^2))
        variances = np.asarray(scan.map(variance, stream=0))
        block_leverages = (1.0 + variances) / (len(sizes) + variances.sum())
        per_block_sizes = [
            max(1, min(int(round(budget * leverage)), max(1, int(size))))
            for leverage, size in zip(block_leverages, sizes)
        ]

        def block_mean(block, share, rng) -> Tuple[float, int]:
            if block.size == 0:
                return 0.0, 0
            sample = block.sample_column(column, share, rng)
            return float(sample.mean()), int(sample.size)

        results = scan.map(block_mean, per_block_sizes, stream=1)
        drawn = sum(count for _, count in results)
        if drawn == 0:
            raise SamplingError("bi-level sampling produced an empty sample")
        weights = sizes / total_rows
        block_means = np.array([mean for mean, _ in results])
        estimate = float((weights * block_means).sum())
        return estimate, drawn, {
            "block_leverages": [float(b) for b in block_leverages],
            "per_block_sizes": per_block_sizes,
        }
