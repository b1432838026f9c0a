"""Measure-biased baselines (MV and MVB) from the sample+seek comparison.

Section VIII-C of the paper adapts the measure-biased sampling of
sample+seek [17] to AVG aggregation in two ways:

* **MV** ("probabilities on values"): each sampled value is re-weighted with a
  probability proportional to its value (Eq. 4), so the estimate is
  ``sum(x_i^2) / sum(x_i)`` over the sample.  For ``N(100, 20^2)`` this is
  biased upward to ``(mu^2 + sigma^2)/mu = 104``, which is exactly what the
  paper's Table III reports.
* **MVB** ("probabilities on values and boundaries"): samples are first
  divided into regions by the ISLA data boundaries; each region receives
  probability mass proportional to its sample count and, within a region,
  proportional to the values — the worked example in §VIII-C (region share
  ``n_region / n`` times ``value / region_sum``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import BaselineAggregator, DEFAULT_PILOT_SIZE, PartitionScan

__all__ = ["MeasureBiasedValueAggregator", "MeasureBiasedBoundaryAggregator"]


class MeasureBiasedValueAggregator(BaselineAggregator):
    """MV: re-weight uniform samples with probabilities proportional to values."""

    method = "MV"

    def _estimate(self, scan: PartitionScan):
        sample = scan.uniform_sample()
        value_sum = float(sample.sum())
        if value_sum == 0.0:
            # Degenerate all-zero sample: fall back to the plain mean (zero).
            estimate = 0.0
        else:
            probabilities = sample / value_sum
            estimate = float((probabilities * sample).sum())
        return estimate, int(sample.size), {"plain_mean": float(sample.mean())}


class MeasureBiasedBoundaryAggregator(BaselineAggregator):
    """MVB: measure-biased probabilities combined with the ISLA data boundaries."""

    method = "MVB"

    def __init__(
        self,
        p1: float = 0.5,
        p2: float = 2.0,
        pilot_size: int = DEFAULT_PILOT_SIZE,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 < p1 < p2:
            raise SamplingError(f"boundary parameters must satisfy 0 < p1 < p2, got {p1}, {p2}")
        if pilot_size <= 1:
            raise SamplingError("pilot_size must exceed 1")
        self.p1 = float(p1)
        self.p2 = float(p2)
        self.pilot_size = int(pilot_size)

    def _estimate(self, scan: PartitionScan):
        # Import here to avoid a package-level cycle: the core package depends
        # on sampling only through the experiments, not vice versa.
        from repro.core.boundaries import DataBoundaries

        pilot = scan.store.pilot_sample(scan.column, self.pilot_size, scan.pre_rng)
        sketch = float(pilot.mean())
        sigma = float(pilot.std())
        boundaries = DataBoundaries.from_sketch(sketch, sigma, p1=self.p1, p2=self.p2)

        sample = scan.uniform_sample()
        regions = boundaries.classify(sample)
        estimate = 0.0
        region_stats = {}
        total = int(sample.size)
        for region_code in np.unique(regions):
            mask = regions == region_code
            region_values = sample[mask]
            region_sum = float(region_values.sum())
            share = region_values.size / total
            if region_sum == 0.0:
                contribution = share * float(region_values.mean()) if region_values.size else 0.0
            else:
                within = region_values / region_sum
                contribution = share * float((within * region_values).sum())
            estimate += contribution
            region_stats[int(region_code)] = {
                "count": int(region_values.size),
                "contribution": contribution,
            }
        return float(estimate), total, {"sketch": sketch, "sigma": sigma, "regions": region_stats}
