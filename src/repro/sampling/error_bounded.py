"""Error-bounded stratified sampling (reference [23], Yan et al. 2014), simplified.

The original technique targets sparse data: rows are partitioned into value
strata, and each stratum receives just enough samples to meet a per-stratum
error budget.  We reproduce the essential behaviour — value-based strata with
error-driven allocation — as another related-work baseline used in the
ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["ErrorBoundedStratifiedAggregator"]


class ErrorBoundedStratifiedAggregator(BaselineAggregator):
    """Value-stratified sampling with variance-proportional allocation."""

    method = "EBS"

    def __init__(self, strata: int = 8, seed: Optional[int] = None) -> None:
        super().__init__(seed=seed)
        if strata < 2:
            raise SamplingError(f"strata must be at least 2, got {strata}")
        self.strata = int(strata)

    def _estimate(self, scan: PartitionScan):
        column, strata = scan.column, self.strata
        population = scan.store.total_rows
        if population == 0:
            raise SamplingError("cannot aggregate an empty store")
        budget = max(strata, int(round(scan.rate * population)))

        # Phase 1 — the global value range from per-block extrema.
        def extrema(block) -> Tuple[float, float]:
            values = block.column(column)
            if values.size == 0:
                return math.inf, -math.inf
            return float(values.min()), float(values.max())

        bounds = scan.map(extrema)
        low = min(piece for piece, _ in bounds)
        high = max(piece for _, piece in bounds)
        if high == low:
            return low, min(budget, population), {"degenerate": True}
        # Equi-width value strata between the observed min and max.
        edges = np.linspace(low, high, strata + 1)

        # Phase 2 — per-block per-stratum power sums (count, sum x, sum x^2)
        # merged into the global stratum sizes and standard deviations.
        def stratum_sums(block) -> np.ndarray:
            sums = np.zeros((strata, 3), dtype=float)
            values = block.column(column)
            if values.size == 0:
                return sums
            assignments = np.clip(np.digitize(values, edges[1:-1]), 0, strata - 1)
            for stratum in range(strata):
                members = values[assignments == stratum]
                if members.size:
                    sums[stratum] = (members.size, members.sum(), (members * members).sum())
            return sums

        per_block_sums = scan.map(stratum_sums)
        merged = np.sum(per_block_sums, axis=0)
        stratum_sizes = merged[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            stratum_means = np.where(
                stratum_sizes > 0, merged[:, 1] / np.maximum(stratum_sizes, 1), 0.0
            )
            stratum_vars = np.where(
                stratum_sizes > 0,
                np.maximum(0.0, merged[:, 2] / np.maximum(stratum_sizes, 1) - stratum_means ** 2),
                0.0,
            )
        weights = stratum_sizes * (np.sqrt(stratum_vars) + 1e-12)
        if weights.sum() == 0.0:
            weights = stratum_sizes
        allocations = np.maximum(
            (stratum_sizes > 0).astype(int),
            np.round(budget * weights / weights.sum()).astype(int),
        )

        # Deterministic per-block shares: each block samples its local members
        # of stratum s proportionally to its share of the stratum, with a
        # canonical top-up so every non-empty stratum draws at least once.
        counts = np.stack([sums[:, 0] for sums in per_block_sums])  # (blocks, strata)
        shares = np.zeros_like(counts, dtype=int)
        for stratum in range(strata):
            if stratum_sizes[stratum] <= 0 or allocations[stratum] <= 0:
                continue
            raw = allocations[stratum] * counts[:, stratum] / stratum_sizes[stratum]
            shares[:, stratum] = np.minimum(np.round(raw), counts[:, stratum]).astype(int)
            if shares[:, stratum].sum() == 0:
                first = int(np.argmax(counts[:, stratum] > 0))
                shares[first, stratum] = 1

        # Phase 3 — the only randomised pass: sample within each block-stratum.
        def stratum_draws(block, block_shares, rng) -> np.ndarray:
            drawn = np.zeros((strata, 2), dtype=float)  # (count, sum) per stratum
            if block.size == 0 or not block_shares.any():
                return drawn
            values = block.column(column)
            assignments = np.clip(np.digitize(values, edges[1:-1]), 0, strata - 1)
            for stratum in range(strata):
                share = int(block_shares[stratum])
                if share <= 0:
                    continue
                members = values[assignments == stratum]
                share = min(share, members.size)
                sample = members[rng.choice(members.size, size=share, replace=False)]
                drawn[stratum] = (share, sample.sum())
            return drawn

        drawn_sums = np.sum(scan.map(stratum_draws, shares, stream=0), axis=0)
        total_drawn = int(drawn_sums[:, 0].sum())
        if total_drawn == 0:
            raise SamplingError("error-bounded sampling produced an empty sample")
        estimate = 0.0
        for stratum in range(strata):
            count = drawn_sums[stratum, 0]
            if count > 0:
                estimate += (stratum_sizes[stratum] / population) * (
                    drawn_sums[stratum, 1] / count
                )
        return float(estimate), total_drawn, {
            "strata": strata,
            "allocations": [int(a) for a in allocations],
        }
