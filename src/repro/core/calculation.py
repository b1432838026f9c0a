"""The Calculation module: Algorithm 1 (sampling) and Algorithm 2 (iteration).

Each block runs two phases:

1. **Sampling phase** — draw ``m = r * |B_j|`` uniform samples, classify each
   against the data boundaries, and fold S/L samples into the two region
   accumulators.  Samples outside S and L are dropped immediately; no sample
   is ever stored.
2. **Iteration phase** — if |S| and |L| are approximately balanced, return
   ``sketch0``; otherwise build the objective function from the accumulators
   (Theorem 3), pick the modulation strategy, and iterate until ``|D| <= thr``.
   The block's partial answer is the final value of the l-estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.core.accumulators import RegionMoments
from repro.core.boundaries import DataBoundaries
from repro.core.config import ISLAConfig
from repro.core.leverage import allocate_q, deviation_degree
from repro.core.modulation import (
    IterativeModulator,
    ModulationCase,
    classify_case,
    theorem1_step_ratio,
)
from repro.core.objective import ObjectiveFunction
from repro.core.result import BlockResult
from repro.errors import EstimationError
from repro.stats.confidence import normal_quantile
from repro.storage.block import Block

__all__ = ["sampling_phase", "iteration_phase", "BlockCalculator"]


def sampling_phase(
    block: Block,
    column: str,
    rate: float,
    boundaries: DataBoundaries,
    rng: np.random.Generator,
) -> Tuple[RegionMoments, RegionMoments, int]:
    """Algorithm 1: sample one block and accumulate the S/L region moments.

    Returns ``(paramS, paramL, sample_size)``.  The implementation is
    vectorised (classification and the power sums are computed with numpy)
    but is observationally identical to the per-row pseudo code.
    """
    sample_size = int(round(rate * block.size))
    param_s = RegionMoments()
    param_l = RegionMoments()
    if sample_size <= 0 or block.size == 0:
        return param_s, param_l, 0
    with obs.span("sample.draw", block=block.block_id) as sp:
        sample = block.sample_column(column, sample_size, rng)
        s_values, l_values = boundaries.split_sl(sample)
        param_s.update_many(s_values)
        param_l.update_many(l_values)
        sp.set_tag("rows", sample_size)
        sp.set_tag("count_s", param_s.count)
        sp.set_tag("count_l", param_l.count)
    obs.counter("sample.rows", sample_size)
    return param_s, param_l, sample_size


@dataclass(frozen=True)
class IterationOutput:
    """Raw output of the iteration phase before being wrapped in a BlockResult."""

    estimate: float
    case: ModulationCase
    iterations: int
    alpha: float
    q: float
    deviation: float
    converged: bool
    used_fallback: bool
    fallback_reason: Optional[str]


def iteration_phase(
    param_s: RegionMoments,
    param_l: RegionMoments,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float] = None,
) -> IterationOutput:
    """Algorithm 2: decide the strategy and iterate to the block's answer.

    ``sketch_interval_radius`` is the half-width of sketch0's relaxed
    confidence interval; when ``config.clamp_to_sketch_interval`` is set the
    final answer is clipped into ``sketch0 ± radius`` (the safeguard for
    extreme distributions discussed in Section VII-B).
    """
    with obs.span("isla.iteration") as sp:
        output = _iteration_phase(
            param_s, param_l, sketch0, config, sketch_interval_radius
        )
        if sp.is_recording:
            sp.set_tag("case", output.case.value)
            sp.set_tag("iterations", output.iterations)
            sp.set_tag("converged", output.converged)
            if output.used_fallback:
                sp.set_tag("fallback", output.fallback_reason)
            obs.counter("isla.iterations", output.iterations)
    return output


def _iteration_phase(
    param_s: RegionMoments,
    param_l: RegionMoments,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float] = None,
) -> IterationOutput:
    # Fallbacks: a region with no samples cannot support Theorem 3; the sketch
    # (which carries its own relaxed precision guarantee) is the answer.
    if param_s.is_empty or param_l.is_empty:
        reason = "empty_S_region" if param_s.is_empty else "empty_L_region"
        return IterationOutput(
            estimate=sketch0,
            case=ModulationCase.BALANCED,
            iterations=0,
            alpha=0.0,
            q=1.0,
            deviation=float("nan"),
            converged=True,
            used_fallback=True,
            fallback_reason=reason,
        )

    deviation = deviation_degree(param_s.count, param_l.count)
    if abs(deviation - 1.0) <= config.balance_tolerance:
        # Case 5: sketch0 already splits S and L evenly, so it is close to µ.
        return IterationOutput(
            estimate=sketch0,
            case=ModulationCase.BALANCED,
            iterations=0,
            alpha=0.0,
            q=1.0,
            deviation=deviation,
            converged=True,
            used_fallback=False,
            fallback_reason=None,
        )

    with obs.span("leverage.compute") as lev:
        q = allocate_q(param_s.count, param_l.count, config)
        lev.set_tag("q", q)
        lev.set_tag("deviation", deviation)
    try:
        objective = ObjectiveFunction.from_moments(param_s, param_l, q)
    except EstimationError:
        return IterationOutput(
            estimate=sketch0,
            case=ModulationCase.BALANCED,
            iterations=0,
            alpha=0.0,
            q=q,
            deviation=deviation,
            converged=True,
            used_fallback=True,
            fallback_reason="degenerate_objective",
        )

    d0 = objective.initial_value(sketch0)
    case = classify_case(
        d0,
        param_s.count,
        param_l.count,
        config.balance_tolerance,
        contradiction_band=config.moderate_band,
    )
    lest_deviation, sketch_deviation = _expected_deviations(
        param_s, param_l, objective.c, config, sketch_interval_radius
    )
    modulator = IterativeModulator(config)
    outcome = modulator.run(
        objective,
        sketch0,
        case=case,
        lest_deviation=lest_deviation,
        sketch_deviation=sketch_deviation,
    )

    estimate = outcome.l_estimate
    if config.clamp_to_sketch_interval and sketch_interval_radius is not None:
        low = sketch0 - sketch_interval_radius
        high = sketch0 + sketch_interval_radius
        estimate = min(max(estimate, low), high)

    return IterationOutput(
        estimate=estimate,
        case=case,
        iterations=outcome.iterations,
        alpha=outcome.alpha,
        q=q,
        deviation=deviation,
        converged=outcome.converged,
        used_fallback=False,
        fallback_reason=None,
    )


def _expected_deviations(
    param_s: RegionMoments,
    param_l: RegionMoments,
    c: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float],
) -> Tuple[Optional[float], Optional[float]]:
    """Expected |µ̂ − µ| and |sketch − µ| used for Theorem 1's step ratio.

    The sketch's expected deviation is its standard error, recovered from the
    relaxed confidence-interval radius.  The l-estimator's combines the
    first-order geometric coupling (a sketch deviation of δ shifts the S∪L
    truncated mean by ``κ·δ``) with the sampling noise of the S∪L mean.
    Returns ``(None, None)`` when the sketch radius is unknown, in which case
    the modulator falls back to the purely geometric ratio.
    """
    if sketch_interval_radius is None or sketch_interval_radius <= 0.0:
        return None, None
    sketch_std = sketch_interval_radius / normal_quantile(config.confidence)
    count = param_s.count + param_l.count
    if count <= 0:
        return None, None
    second_moment = (param_s.square_sum + param_l.square_sum) / count
    variance = max(0.0, second_moment - c * c)
    c_std = sqrt(variance / count)
    kappa = theorem1_step_ratio(config.p1, config.p2)
    lest_deviation = sqrt((kappa * sketch_std) ** 2 + c_std ** 2)
    return lest_deviation, sketch_std


class BlockCalculator:
    """Convenience wrapper running both phases over one block."""

    def __init__(self, config: Optional[ISLAConfig] = None) -> None:
        self.config = config or ISLAConfig()

    def run(
        self,
        block: Block,
        column: str,
        rate: float,
        boundaries: DataBoundaries,
        sketch0: float,
        rng: np.random.Generator,
        sketch_interval_radius: Optional[float] = None,
    ) -> BlockResult:
        """Run Algorithm 1 then Algorithm 2 on one block."""
        param_s, param_l, sample_size = sampling_phase(
            block, column, rate, boundaries, rng
        )
        output = iteration_phase(
            param_s,
            param_l,
            sketch0,
            self.config,
            sketch_interval_radius=sketch_interval_radius,
        )
        return BlockResult(
            block_id=block.block_id,
            estimate=output.estimate,
            block_size=block.size,
            sample_size=sample_size,
            count_s=param_s.count,
            count_l=param_l.count,
            case=output.case.value,
            iterations=output.iterations,
            alpha=output.alpha,
            q=output.q,
            deviation=output.deviation,
            converged=output.converged,
            used_fallback=output.used_fallback,
            fallback_reason=output.fallback_reason,
        )
