"""Statistical substrate: confidence intervals and distribution summaries.

This package implements the statistics machinery the paper relies on in its
Pre-estimation module (Section III): normal-quantile based confidence
intervals (Definition 1) and the required-sample-size formula (Eq. 1).  The
per-region power sums the Calculation module keeps live in
:mod:`repro.core.accumulators`; the Hansen–Hurwitz estimator of the SLEV
baseline lives in :mod:`repro.sampling.slev`.
"""

from repro.stats.confidence import (
    ConfidenceInterval,
    confidence_interval,
    half_width,
    normal_quantile,
    required_sample_size,
    required_sampling_rate,
)
from repro.stats.distributions import DistributionSummary, summarize

__all__ = [
    "ConfidenceInterval",
    "confidence_interval",
    "half_width",
    "normal_quantile",
    "required_sample_size",
    "required_sampling_rate",
    "DistributionSummary",
    "summarize",
]
