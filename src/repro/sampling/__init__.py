"""Sampling-based baseline aggregators.

Every estimator the paper compares against (Section VIII and the related-work
section) is implemented here on top of the same block-store substrate ISLA
uses, so the experiment harness can run all methods under identical
conditions:

* :class:`UniformAggregator` (US) — plain uniform sampling.
* :class:`StratifiedAggregator` (STS) — per-block strata, proportional or
  Neyman allocation.
* :class:`MeasureBiasedValueAggregator` (MV) and
  :class:`MeasureBiasedBoundaryAggregator` (MVB) — the measure-biased
  technique of sample+seek [17] adapted to AVG as described in §VIII-C.
* :class:`SlevAggregator` — algorithmic-leveraging (SLEV) biased sampling [2].
* :class:`BiLevelAggregator` — bi-level Bernoulli sampling [1].
* :class:`BlockLevelAggregator` — block-level sampling [22].
* :class:`ErrorBoundedStratifiedAggregator` — error-bounded stratified
  sampling for sparse data [23], simplified.
"""

from repro.sampling.base import BaselineAggregator, SampleEstimate
from repro.sampling.uniform import UniformAggregator
from repro.sampling.stratified import StratifiedAggregator
from repro.sampling.measure_biased import (
    MeasureBiasedValueAggregator,
    MeasureBiasedBoundaryAggregator,
)
from repro.sampling.slev import SlevAggregator
from repro.sampling.bilevel import BiLevelAggregator
from repro.sampling.block_level import BlockLevelAggregator
from repro.sampling.error_bounded import ErrorBoundedStratifiedAggregator

__all__ = [
    "BaselineAggregator",
    "SampleEstimate",
    "UniformAggregator",
    "StratifiedAggregator",
    "MeasureBiasedValueAggregator",
    "MeasureBiasedBoundaryAggregator",
    "SlevAggregator",
    "BiLevelAggregator",
    "BlockLevelAggregator",
    "ErrorBoundedStratifiedAggregator",
]
