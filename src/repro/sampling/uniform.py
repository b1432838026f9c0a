"""Uniform sampling (US) — the paper's primary cheap baseline."""

from __future__ import annotations

from repro.sampling.base import BaselineAggregator, PartitionScan

__all__ = ["UniformAggregator"]


class UniformAggregator(BaselineAggregator):
    """Plain uniform random sampling with the sample mean as the estimate.

    Each block is sampled at the global rate (as in the paper's experiments,
    where every block draws ``r * |B_j|`` rows) and the pooled sample mean is
    returned.
    """

    method = "US"

    def _estimate(self, scan: PartitionScan):
        sample = scan.uniform_sample()
        return float(sample.mean()), int(sample.size), {"sample_std": float(sample.std())}
