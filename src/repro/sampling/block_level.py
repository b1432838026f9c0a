"""Block-level sampling (reference [22], Chaudhuri et al. 2004), simplified.

Instead of touching every block, block-level sampling selects a subset of
blocks and samples those more densely, trading statistical efficiency for
I/O.  It serves as an additional related-work baseline and as a stress case
for the experiments: on i.i.d. blocks it matches uniform sampling, on
non-i.i.d. blocks it degrades sharply.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["BlockLevelAggregator"]


class BlockLevelAggregator(BaselineAggregator):
    """Sample a fraction of blocks, then sample densely inside them."""

    method = "BLOCK"

    def __init__(self, block_fraction: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__(seed=seed)
        if not 0.0 < block_fraction <= 1.0:
            raise SamplingError(
                f"block_fraction must lie in (0, 1], got {block_fraction}"
            )
        self.block_fraction = float(block_fraction)

    def _estimate(self, scan: PartitionScan):
        store, column = scan.store, scan.column
        block_count = store.block_count
        chosen_count = max(1, int(round(self.block_fraction * block_count)))
        chosen = {
            int(index)
            for index in scan.pre_rng.choice(block_count, size=chosen_count, replace=False)
        }

        total_rows = float(store.block_sizes().sum())
        budget = max(1, int(round(scan.rate * total_rows)))
        per_block = max(1, budget // chosen_count)
        shares = [per_block if index in chosen else 0 for index in range(block_count)]

        def draw(block, share, rng) -> np.ndarray:
            if share == 0 or block.size == 0:
                return np.empty(0, dtype=float)
            return block.sample_column(column, share, rng)

        sample = np.concatenate(scan.map(draw, shares, stream=0))
        if sample.size == 0:
            raise SamplingError("block-level sampling produced an empty sample")
        return float(sample.mean()), int(sample.size), {
            "blocks_used": sorted(chosen),
            "per_block": per_block,
        }
