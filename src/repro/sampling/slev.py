"""SLEV: algorithmic-leveraging biased sampling (reference [2] of the paper).

Ma, Mahoney & Yu's SLEV draws samples with probabilities that mix leverage
scores with the uniform distribution, ``pi_i = alpha * h_i + (1 - alpha)/n``,
and re-weights each draw by ``1 / pi_i`` (Hansen–Hurwitz).  The paper uses
this as the motivating prior technique: it is unbiased but needs the leverage
of *every* row (a full pass over the data), which is exactly the cost ISLA
avoids.  The implementation therefore reads every block, which is fine at
reproduction scale and makes the comparison honest.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.summarization import combine_partial_means
from repro.errors import EstimationError, SamplingError
from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["SlevAggregator", "hansen_hurwitz_mean"]


def hansen_hurwitz_mean(
    values: Sequence[float],
    inclusion_probabilities: Sequence[float],
    population_size: int,
) -> float:
    """Hansen–Hurwitz estimator of the population mean under PPS sampling.

    For ``m`` draws with replacement where item ``i`` is selected with
    probability ``p_i`` (summing to 1 over the population), the unbiased
    estimator of the population total is ``(1/m) * sum(x_i / p_i)``; dividing
    by the population size gives the mean.
    """
    value_array = np.asarray(values, dtype=float)
    prob_array = np.asarray(inclusion_probabilities, dtype=float)
    if value_array.size == 0:
        raise EstimationError("hansen_hurwitz_mean requires at least one draw")
    if value_array.shape != prob_array.shape:
        raise EstimationError("values and probabilities must have the same shape")
    if np.any(prob_array <= 0.0):
        raise EstimationError("all selection probabilities must be positive")
    if population_size <= 0:
        raise EstimationError("population_size must be positive")
    total_estimate = float((value_array / prob_array).mean())
    return total_estimate / population_size


class SlevAggregator(BaselineAggregator):
    """Biased sampling with leverage-mixed probabilities and HH re-weighting."""

    method = "SLEV"

    def __init__(self, alpha: float = 0.9, seed: Optional[int] = None) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= alpha <= 1.0:
            raise SamplingError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def _estimate(self, scan: PartitionScan):
        column, alpha = scan.column, self.alpha
        population = scan.store.total_rows
        if population == 0:
            raise SamplingError("SLEV cannot aggregate an empty store")
        sample_size = max(1, int(round(scan.rate * population)))

        # Phase 1 — the leverage normaliser sum(x^2), SLEV's unavoidable full
        # pass, as per-block partial sums.
        def square_sum(block) -> float:
            values = block.column(column)
            return float((values * values).sum())

        square_sums = scan.map(square_sum)
        global_square = float(sum(square_sums))

        # Per-block probability mass under pi_i = alpha*h_i + (1-alpha)/n.
        block_sizes = scan.store.block_sizes()
        if global_square == 0.0:
            masses = block_sizes / population
        else:
            masses = (
                alpha * np.asarray(square_sums) / global_square
                + (1.0 - alpha) * block_sizes / population
            )

        # Phase 2 — each block draws its leverage share of the budget with
        # within-block probabilities pi_i / mass_b and Hansen-Hurwitz-estimates
        # its own mean; the merge weights by block share (unbiased).
        def block_mean(block, mass, rng) -> Tuple[float, int, int]:
            if block.size == 0:
                return 0.0, 0, 0
            draws = max(1, int(round(sample_size * mass)))
            values = block.column(column)
            if global_square == 0.0:
                within = np.full(values.size, 1.0 / values.size)
            else:
                pi = alpha * values * values / global_square + (1.0 - alpha) / population
                within = pi / pi.sum()
            indices = rng.choice(values.size, size=draws, replace=True, p=within)
            estimate = hansen_hurwitz_mean(
                values[indices], within[indices], population_size=values.size
            )
            return float(estimate), int(block.size), draws

        results = scan.map(block_mean, masses, stream=0)
        occupied = [(mean, size) for mean, size, _ in results if size > 0]
        if not occupied:
            raise SamplingError("SLEV sampling produced an empty sample")
        estimate = combine_partial_means(
            [mean for mean, _ in occupied], [size for _, size in occupied]
        )
        drawn = sum(draws for _, _, draws in results)
        return float(estimate), drawn, {"alpha": alpha, "full_scan_required": True}
