"""Confidence intervals and the sample-size formula of the paper (Eq. 1).

Section III-A of the paper derives the required sample size from Definition 1
(normal-theory confidence interval): for desired half-width ``e`` and
confidence ``beta`` the sample size is ``m = u^2 sigma^2 / e^2`` where ``u``
is the two-sided normal quantile for ``beta``.  The sampling rate is then
``r = m / M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
from statistics import NormalDist

from repro.errors import ConfigurationError

__all__ = [
    "normal_quantile",
    "required_sample_size",
    "required_sampling_rate",
    "half_width",
    "ConfidenceInterval",
    "confidence_interval",
]


@lru_cache
def normal_quantile(confidence: float) -> float:
    """Return the two-sided standard-normal quantile ``u`` for ``confidence``.

    ``u`` satisfies ``P(-u <= Z <= u) = confidence`` for ``Z ~ N(0, 1)``.
    The paper calls this parameter ``u`` in Definition 1.  Memoised: every
    query and every non-balanced block asks for the same few confidences.
    Computed by the standard library's :class:`statistics.NormalDist`, which
    can differ from other normal quantile routines in the last bits
    (DESIGN.md §5).

    Parameters
    ----------
    confidence:
        Coverage probability ``beta``, strictly between 0 and 1.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must lie in (0, 1), got {confidence!r}"
        )
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def required_sample_size(sigma: float, precision: float, confidence: float) -> int:
    """Sample size ``m = u^2 sigma^2 / e^2`` (paper Eq. 1, numerator).

    Parameters
    ----------
    sigma:
        Estimated population standard deviation.
    precision:
        Desired half-width ``e`` of the confidence interval.
    confidence:
        Coverage probability ``beta``.

    Returns
    -------
    int
        The number of samples needed, rounded up, and never less than 1.
    """
    if sigma < 0.0:
        raise ConfigurationError(f"sigma must be non-negative, got {sigma!r}")
    if precision <= 0.0:
        raise ConfigurationError(f"precision must be positive, got {precision!r}")
    u = normal_quantile(confidence)
    m = (u * sigma / precision) ** 2
    return max(1, int(math.ceil(m)))


def required_sampling_rate(
    sigma: float,
    precision: float,
    confidence: float,
    population_size: int,
) -> float:
    """Sampling rate ``r = u^2 sigma^2 / (M e^2)`` (paper Eq. 1), capped at 1.

    Parameters
    ----------
    sigma, precision, confidence:
        As in :func:`required_sample_size`.
    population_size:
        The data size ``M``.
    """
    if population_size <= 0:
        raise ConfigurationError(
            f"population_size must be positive, got {population_size!r}"
        )
    m = required_sample_size(sigma, precision, confidence)
    return min(1.0, m / population_size)


def half_width(sigma: float, sample_size: int, confidence: float) -> float:
    """Half-width ``u * sigma / sqrt(m)`` of the CI achieved by ``sample_size``."""
    if sample_size <= 0:
        raise ConfigurationError(
            f"sample_size must be positive, got {sample_size!r}"
        )
    if sigma < 0.0:
        raise ConfigurationError(f"sigma must be non-negative, got {sigma!r}")
    return normal_quantile(confidence) * sigma / math.sqrt(sample_size)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``(center - radius, center + radius)``."""

    center: float
    radius: float
    confidence: float

    @property
    def low(self) -> float:
        """Lower endpoint of the interval."""
        return self.center - self.radius

    @property
    def high(self) -> float:
        """Upper endpoint of the interval."""
        return self.center + self.radius

    @property
    def width(self) -> float:
        """Total width (``2 * radius``)."""
        return 2.0 * self.radius

    def contains(self, value: float) -> bool:
        """Return True when ``value`` lies inside the closed interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.low:.6g}, {self.high:.6g}] "
            f"({self.confidence:.0%} confidence)"
        )


def confidence_interval(
    mean: float,
    sigma: float,
    sample_size: int,
    confidence: float,
) -> ConfidenceInterval:
    """Normal-theory confidence interval around a sample mean (Definition 1)."""
    radius = half_width(sigma, sample_size, confidence)
    return ConfidenceInterval(center=mean, radius=radius, confidence=confidence)
