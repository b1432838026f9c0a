"""Configuration of the ISLA aggregator.

Every tunable the paper introduces is a field of :class:`ISLAConfig`, with the
paper's defaults from Section VIII ("Parameters"):

=======================  =========  =================================================
Field                    Default    Paper symbol / source
=======================  =========  =================================================
``precision``            0.1        desired precision ``e``
``confidence``           0.95       confidence ``beta``
``p1`` / ``p2``          0.5 / 2.0  data boundary parameters
``step_length_factor``   0.8        ``lambda``
``convergence_rate``     0.5        ``eta`` (D halves per iteration)
``threshold``            1e-3       iteration threshold ``thr``
``relaxed_factor``       1.5        ``te`` (sketch0 uses precision ``te * e``)
``pilot_sample_size``    1000       pilot set used to estimate sigma
``balance_tolerance``    0.01       "|S| ~= |L|" band, the paper's (0.99, 1.01)
``moderate_band``        0.06       dev in (0.94, 0.97) u (1.03, 1.06) -> q' = 5
``mild_band``            0.03       inner edge of the moderate band
``q_moderate``           5.0        q' for moderate deviation
``q_severe``             10.0       q' for severe deviation
=======================  =========  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["ISLAConfig"]


@dataclass(frozen=True)
class ISLAConfig:
    """All tunables of the ISLA aggregation pipeline."""

    #: desired half-width ``e`` of the answer's confidence interval
    precision: float = 0.1
    #: confidence level ``beta`` of the answer
    confidence: float = 0.95
    #: inner data-boundary parameter ``p1`` (S/L regions start at sketch0 +- p1*sigma)
    p1: float = 0.5
    #: outer data-boundary parameter ``p2`` (S/L regions end at sketch0 +- p2*sigma)
    p2: float = 2.0
    #: step-length factor ``lambda`` in (0, 1)
    step_length_factor: float = 0.8
    #: convergence speed ``eta`` in (0, 1): D shrinks to eta*D per iteration
    convergence_rate: float = 0.5
    #: iteration threshold ``thr``: stop once |D| <= thr
    threshold: float = 1e-3
    #: relaxed-precision factor ``te`` (> 1) used when generating sketch0
    relaxed_factor: float = 1.5
    #: pilot sample size used to estimate sigma in the Pre-estimation module
    pilot_sample_size: int = 1000
    #: |S|/|L| band treated as "balanced" (Case 5 returns sketch0 directly)
    balance_tolerance: float = 0.01
    #: |dev - 1| below this (but above balance_tolerance) keeps q' = 1
    mild_band: float = 0.03
    #: |dev - 1| below this (but above mild_band) uses q' = q_moderate
    moderate_band: float = 0.06
    #: leverage allocating parameter q' for moderate sketch0 deviation
    q_moderate: float = 5.0
    #: leverage allocating parameter q' for severe sketch0 deviation
    q_severe: float = 10.0
    #: derive the step-length factor of the consistent cases (2 and 3) from
    #: Theorem 1 under the normal model (lambda* = (p1*phi(p1) - p2*phi(p2)) /
    #: (Phi(p2) - Phi(p1)), the first-order ratio of the two estimators'
    #: deviations); the fixed ``step_length_factor`` is still used for the
    #: unbalanced-sampling cases 1 and 4 and as a fallback
    adaptive_step_length: bool = True
    #: hard cap on modulation iterations (the analytic bound is log2(|D0|/thr))
    max_iterations: int = 200
    #: clamp the final block answer to sketch0's relaxed confidence interval
    #: (the safeguard discussed for extreme distributions in Section VII-B)
    clamp_to_sketch_interval: bool = False
    #: partition scan width: how many shards of a scan's per-block partition
    #: tasks (:mod:`repro.parallel`) run at once; ``None`` (like 1) runs
    #: them inline on the caller's thread.  Seeded results are bit-identical
    #: across parallelism levels, so this is purely a throughput knob.
    parallelism: Optional[int] = None
    #: per-shard straggler deadline (milliseconds) for partition-parallel
    #: scans: a partition task still running past it is speculatively
    #: re-executed with the same seed (bit-identical, so speculation can
    #: never change an answer).  ``None`` disables the watchdog.
    straggler_timeout_ms: Optional[float] = None
    #: random seed used when the caller does not pass a Generator
    seed: Optional[int] = None
    #: tri-state telemetry switch: True/False force spans + metrics on/off for
    #: components built from this config; None defers to the ambient setting
    #: (the ``REPRO_TELEMETRY`` environment variable or an activated scope)
    telemetry: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.precision <= 0:
            raise ConfigurationError(f"precision must be positive, got {self.precision}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )
        if not 0.0 < self.p1 < self.p2:
            raise ConfigurationError(
                f"boundaries must satisfy 0 < p1 < p2, got p1={self.p1}, p2={self.p2}"
            )
        if not 0.0 < self.step_length_factor < 1.0:
            raise ConfigurationError(
                f"step_length_factor must lie in (0, 1), got {self.step_length_factor}"
            )
        if not 0.0 < self.convergence_rate < 1.0:
            raise ConfigurationError(
                f"convergence_rate must lie in (0, 1), got {self.convergence_rate}"
            )
        if self.threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {self.threshold}")
        if self.relaxed_factor <= 1.0:
            raise ConfigurationError(
                f"relaxed_factor must exceed 1, got {self.relaxed_factor}"
            )
        if self.pilot_sample_size < 2:
            raise ConfigurationError(
                f"pilot_sample_size must be at least 2, got {self.pilot_sample_size}"
            )
        if not 0.0 < self.balance_tolerance < 1.0:
            raise ConfigurationError(
                f"balance_tolerance must lie in (0, 1), got {self.balance_tolerance}"
            )
        if not self.balance_tolerance <= self.mild_band <= self.moderate_band:
            raise ConfigurationError(
                "deviation bands must satisfy balance_tolerance <= mild_band <= moderate_band"
            )
        if self.q_moderate < 1.0 or self.q_severe < 1.0:
            raise ConfigurationError("q_moderate and q_severe must be at least 1")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be None or at least 1, got {self.parallelism}"
            )
        if self.straggler_timeout_ms is not None and self.straggler_timeout_ms <= 0:
            raise ConfigurationError(
                f"straggler_timeout_ms must be None or positive, "
                f"got {self.straggler_timeout_ms}"
            )

    # ------------------------------------------------------------- utilities
    @property
    def relaxed_precision(self) -> float:
        """The relaxed precision ``te * e`` used to generate sketch0."""
        return self.relaxed_factor * self.precision

    def with_updates(self, **changes) -> "ISLAConfig":
        """Return a copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    @classmethod
    def paper_defaults(cls) -> "ISLAConfig":
        """The exact default parameterisation of Section VIII."""
        return cls()
