"""Deviation evaluation, modulation strategies and the iteration loop (Section V).

The iteration drives the objective ``D = µ̂ − sketch`` towards zero at a
geometric rate ``η`` per round.  Which estimator moves, in which direction and
by how much is decided once, before the loop, from two indicators:

* the sign of ``D0 = c − sketch0`` (is the un-leveraged sample mean above or
  below the sketch?), and
* the relation between |S| and |L| (is the sketch above or below µ? —
  ``|S| > |L|`` indicates ``sketch0 > µ`` and vice versa).

This yields the paper's five cases.  The step lengths are solved in closed
form from the per-round target ``D → ηD`` and the step-length factor ``λ``
that fixes the ratio between the smaller and the larger move (Section V-D).

Geometry note (documented in DESIGN.md): for symmetric data the S∪L sample
mean ``c`` falls on the *opposite* side of µ from the sketch (shifting the
window right pulls the truncated mean left), so in the two consistent cases
(2 and 3) the accurate value lies *between* the estimators — Fig. 1's first
configuration — and Theorem 1 prescribes moving them towards each other with
the l-estimator (the closer one) taking the ``λ``-scaled smaller step.  We
therefore implement Case 3 as the exact mirror image of Case 2.  Cases 1 and
4 are the paper's "unbalanced sampling" situations (the two indicators
contradict each other); they keep the paper's same-direction rule with the
l-estimator moving more, and are only selected when the |S|/|L| imbalance is
strong enough to be trusted (otherwise the sketch is returned, as in Case 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from statistics import NormalDist
from typing import List, Optional, Tuple

from repro.core.config import ISLAConfig
from repro.core.objective import ObjectiveFunction
from repro.errors import ConvergenceError, EstimationError

__all__ = [
    "ModulationCase",
    "classify_case",
    "plan_step",
    "theorem1_step_ratio",
    "ModulationOutcome",
    "IterationRecord",
    "IterativeModulator",
]

#: |k| below this is treated as "the l-estimator cannot move" and the whole
#: per-round correction is applied to the sketch instead.
_K_EPSILON = 1e-12


class ModulationCase(Enum):
    """The five modulation strategies of Section V-C."""

    #: Case 1 — D0 < 0, |S| < |L| (contradictory): both increase, µ̂ more.
    UNBALANCED_INCREASE = "case1"
    #: Case 2 — D0 < 0, |S| > |L|: sketch0 > µ > c; sketch falls more, µ̂ rises slightly.
    TOWARD_EACH_OTHER_DOWN = "case2"
    #: Case 3 — D0 > 0, |S| < |L|: sketch0 < µ < c; sketch rises more, µ̂ falls slightly.
    TOWARD_EACH_OTHER_UP = "case3"
    #: Case 4 — D0 > 0, |S| > |L| (contradictory): both decrease, µ̂ more.
    UNBALANCED_DECREASE = "case4"
    #: Case 5 — |S| ≈ |L|: sketch0 already close to µ; return it directly.
    BALANCED = "case5"

    @property
    def paper_case(self) -> int:
        """The 1-based case number used in the paper."""
        return {
            ModulationCase.UNBALANCED_INCREASE: 1,
            ModulationCase.TOWARD_EACH_OTHER_DOWN: 2,
            ModulationCase.TOWARD_EACH_OTHER_UP: 3,
            ModulationCase.UNBALANCED_DECREASE: 4,
            ModulationCase.BALANCED: 5,
        }[self]

    @property
    def is_contradictory(self) -> bool:
        """True for the "unbalanced sampling" cases 1 and 4."""
        return self in (
            ModulationCase.UNBALANCED_INCREASE,
            ModulationCase.UNBALANCED_DECREASE,
        )


def classify_case(
    d0: float,
    count_s: int,
    count_l: int,
    balance_tolerance: float,
    contradiction_band: Optional[float] = None,
) -> ModulationCase:
    """Pick the modulation strategy from ``D0`` and the S/L counts.

    ``|S| ≈ |L|`` (within ``balance_tolerance`` of ratio 1) short-circuits to
    Case 5, as does a zero ``D0`` (the estimators already agree).

    ``contradiction_band`` guards the contradictory cases 1 and 4: when the
    two indicators disagree but ``|dev − 1|`` is no larger than the band, the
    imbalance is indistinguishable from sampling noise and the sketch is
    trusted instead (Case 5).  Pass ``None`` to disable the guard.
    """
    if count_s <= 0 or count_l <= 0:
        raise EstimationError("classification requires non-empty S and L regions")
    dev = count_s / count_l
    if abs(dev - 1.0) <= balance_tolerance or d0 == 0.0:
        return ModulationCase.BALANCED
    if d0 < 0.0:
        case = (
            ModulationCase.TOWARD_EACH_OTHER_DOWN
            if count_s > count_l
            else ModulationCase.UNBALANCED_INCREASE
        )
    else:
        case = (
            ModulationCase.TOWARD_EACH_OTHER_UP
            if count_s < count_l
            else ModulationCase.UNBALANCED_DECREASE
        )
    if (
        case.is_contradictory
        and contradiction_band is not None
        and abs(dev - 1.0) <= contradiction_band
    ):
        return ModulationCase.BALANCED
    return case


def plan_step(
    case: ModulationCase,
    d_current: float,
    step_length_factor: float,
    convergence_rate: float,
    lest_moves_more: bool = False,
) -> Tuple[float, float]:
    """Signed per-round changes ``(Δµ̂, Δsketch)`` for the current D.

    The changes satisfy ``D + Δµ̂ − Δsketch = η·D`` and the smaller move equals
    ``λ`` times the larger one, with directions given by the case.  Returns a
    pair of signed deltas; the caller converts ``Δµ̂`` into ``Δα`` via ``k``.

    ``lest_moves_more`` applies to the consistent cases (2 and 3) only: by
    default the sketch takes the larger step (the paper's description); when
    the l-estimator is known to be the less reliable of the two — e.g. very
    few S/L samples backing it — the roles are swapped so the answer leans on
    the sketch instead (Theorem 1 with deviations estimated from the actual
    conditions).
    """
    if case is ModulationCase.BALANCED:
        return 0.0, 0.0
    if not 0.0 < step_length_factor < 1.0:
        raise EstimationError(
            f"step_length_factor must lie in (0, 1), got {step_length_factor}"
        )
    if not 0.0 < convergence_rate < 1.0:
        raise EstimationError(
            f"convergence_rate must lie in (0, 1), got {convergence_rate}"
        )
    lam = step_length_factor
    magnitude = (1.0 - convergence_rate) * abs(d_current)
    if magnitude == 0.0:
        return 0.0, 0.0

    if case is ModulationCase.TOWARD_EACH_OTHER_DOWN:
        # D < 0: the estimators move towards each other (µ̂ up, sketch down).
        if lest_moves_more:
            delta_lest = magnitude / (1.0 + lam)
            delta_sketch = -lam * delta_lest
        else:
            delta_sketch = -magnitude / (1.0 + lam)
            delta_lest = lam * abs(delta_sketch)
    elif case is ModulationCase.TOWARD_EACH_OTHER_UP:
        # D > 0: mirror image (µ̂ down, sketch up).
        if lest_moves_more:
            delta_lest = -magnitude / (1.0 + lam)
            delta_sketch = lam * abs(delta_lest)
        else:
            delta_sketch = magnitude / (1.0 + lam)
            delta_lest = -lam * delta_sketch
    elif case is ModulationCase.UNBALANCED_INCREASE:
        # D < 0 with contradictory indicators: both rise, µ̂ by more (Case 1).
        delta_lest = magnitude / (1.0 - lam)
        delta_sketch = lam * delta_lest
    elif case is ModulationCase.UNBALANCED_DECREASE:
        # D > 0 with contradictory indicators: both fall, µ̂ by more (Case 4).
        delta_lest = -magnitude / (1.0 - lam)
        delta_sketch = lam * delta_lest
    else:  # pragma: no cover - exhaustive enum
        raise EstimationError(f"unknown modulation case {case!r}")
    return delta_lest, delta_sketch


@dataclass(frozen=True)
class IterationRecord:
    """One round of the modulation loop (kept when tracing is enabled)."""

    iteration: int
    d_value: float
    alpha: float
    sketch: float
    l_estimate: float


@dataclass(frozen=True)
class ModulationOutcome:
    """The state of the two estimators when the iteration stops."""

    alpha: float
    sketch: float
    l_estimate: float
    iterations: int
    converged: bool
    case: ModulationCase
    initial_d: float
    final_d: float
    trace: Tuple[IterationRecord, ...] = field(default_factory=tuple)

    @property
    def estimate(self) -> float:
        """The aggregation answer of this block (the final l-estimator value)."""
        return self.l_estimate


@lru_cache
def theorem1_step_ratio(p1: float, p2: float) -> float:
    """Theorem 1's deviation ratio ``λ* = ε / (ε + ε')`` under the normal model.

    To first order in the sketch deviation, the S∪L truncated mean moves by
    ``-κ`` times the sketch deviation with ``κ = (p1·φ(p1) − p2·φ(p2)) /
    (Φ(p2) − Φ(p1))``; Theorem 1 therefore prescribes a step-length factor of
    ``κ`` for the l-estimator relative to the sketch.  The value depends only
    on the data-boundary parameters (≈ 0.24 for the paper's p1=0.5, p2=2.0),
    so it is memoised.
    """
    if not 0.0 < p1 < p2:
        raise EstimationError(f"need 0 < p1 < p2, got p1={p1}, p2={p2}")
    norm = NormalDist()
    numerator = p1 * norm.pdf(p1) - p2 * norm.pdf(p2)
    denominator = norm.cdf(p2) - norm.cdf(p1)
    if denominator <= 0.0:
        raise EstimationError("degenerate boundary parameters")
    ratio = numerator / denominator
    # Clamp into the open interval the step-length factor must live in.
    return float(min(max(ratio, 1e-3), 1.0 - 1e-3))


class IterativeModulator:
    """Runs the Phase-2 iteration (Algorithm 2, lines 5–12) on one block.

    The aggregator runs the same arithmetic over all blocks at once
    (:func:`repro.core.calculation.modulate`); this scalar loop is the
    reference it is tested against, and keeps a per-round trace for the
    worked examples.
    """

    def __init__(self, config: Optional[ISLAConfig] = None, keep_trace: bool = False) -> None:
        self.config = config or ISLAConfig()
        self.keep_trace = keep_trace

    def _step_plan(
        self,
        case: ModulationCase,
        lest_deviation: Optional[float],
        sketch_deviation: Optional[float],
    ) -> Tuple[float, bool]:
        """The (λ, lest_moves_more) pair used for this case.

        For the consistent cases the adaptive mode implements Theorem 1: each
        estimator's step is proportional to its expected deviation from µ.
        The sketch's expected deviation is its standard error (known from the
        relaxed confidence interval); the l-estimator's combines the geometric
        coupling ``κ`` with the sampling noise of the S∪L mean.  Whichever
        estimator is expected to be farther from µ takes the larger step, and
        λ is the ratio of the smaller to the larger deviation.
        """
        config = self.config
        if case.is_contradictory or not config.adaptive_step_length:
            return config.step_length_factor, case.is_contradictory
        if lest_deviation is None or sketch_deviation is None or sketch_deviation <= 0.0:
            return theorem1_step_ratio(config.p1, config.p2), False
        larger = max(lest_deviation, sketch_deviation)
        smaller = min(lest_deviation, sketch_deviation)
        if larger <= 0.0:
            return theorem1_step_ratio(config.p1, config.p2), False
        ratio = float(min(max(smaller / larger, 1e-3), 1.0 - 1e-3))
        return ratio, lest_deviation > sketch_deviation

    def expected_iterations(self, d0: float) -> int:
        """The analytic iteration bound ``ceil(log_{1/η}(|D0| / thr))``."""
        import math

        threshold = self.config.threshold
        if abs(d0) <= threshold:
            return 0
        ratio = abs(d0) / threshold
        return int(math.ceil(math.log(ratio) / math.log(1.0 / self.config.convergence_rate)))

    def run(
        self,
        objective: ObjectiveFunction,
        sketch0: float,
        case: Optional[ModulationCase] = None,
        count_s: Optional[int] = None,
        count_l: Optional[int] = None,
        lest_deviation: Optional[float] = None,
        sketch_deviation: Optional[float] = None,
    ) -> ModulationOutcome:
        """Iteratively modulate α and the sketch until ``|D| <= thr``.

        ``case`` may be passed explicitly; otherwise it is classified from
        ``D0`` and the provided region counts.  ``lest_deviation`` and
        ``sketch_deviation`` are optional estimates of how far each estimator
        is expected to sit from µ; when provided (and adaptive step lengths
        are enabled) they drive Theorem 1's step-length ratio.
        """
        config = self.config
        d0 = objective.initial_value(sketch0)
        if case is None:
            if count_s is None or count_l is None:
                raise EstimationError(
                    "either a ModulationCase or the S/L counts must be provided"
                )
            case = classify_case(
                d0,
                count_s,
                count_l,
                config.balance_tolerance,
                contradiction_band=config.moderate_band,
            )

        alpha = 0.0
        sketch = sketch0
        d_value = d0
        trace: List[IterationRecord] = []
        if case is ModulationCase.BALANCED:
            return ModulationOutcome(
                alpha=0.0,
                sketch=sketch0,
                l_estimate=sketch0,
                iterations=0,
                converged=True,
                case=case,
                initial_d=d0,
                final_d=d0,
                trace=tuple(trace),
            )

        iterations = 0
        step_length_factor, lest_moves_more = self._step_plan(
            case, lest_deviation, sketch_deviation
        )
        while abs(d_value) > config.threshold and iterations < config.max_iterations:
            delta_lest, delta_sketch = plan_step(
                case,
                d_value,
                step_length_factor,
                config.convergence_rate,
                lest_moves_more=lest_moves_more,
            )
            if abs(objective.k) < _K_EPSILON:
                # The l-estimator cannot move; put the whole correction on the
                # sketch so the loop still converges.
                delta_sketch = (1.0 - config.convergence_rate) * d_value
                delta_lest = 0.0
            else:
                alpha += delta_lest / objective.k
            sketch += delta_sketch
            d_value = objective.value(alpha, sketch)
            iterations += 1
            if self.keep_trace:
                trace.append(
                    IterationRecord(
                        iteration=iterations,
                        d_value=d_value,
                        alpha=alpha,
                        sketch=sketch,
                        l_estimate=objective.l_estimator(alpha),
                    )
                )

        converged = abs(d_value) <= config.threshold
        if not converged and iterations >= config.max_iterations:
            raise ConvergenceError(
                f"modulation did not converge after {iterations} iterations "
                f"(|D| = {abs(d_value):.3g} > thr = {config.threshold:.3g})"
            )
        return ModulationOutcome(
            alpha=alpha,
            sketch=sketch,
            l_estimate=objective.l_estimator(alpha),
            iterations=iterations,
            converged=converged,
            case=case,
            initial_d=d0,
            final_d=d_value,
            trace=tuple(trace),
        )
