"""The Calculation module: Algorithm 1 (sampling) and Algorithm 2 (iteration).

Each block runs two phases:

1. **Sampling phase** — draw ``m = r * |B_j|`` uniform samples, classify each
   against the data boundaries, and fold S/L samples into the two region
   accumulators.  Samples outside S and L are dropped immediately.
2. **Iteration phase** — if |S| and |L| are approximately balanced, return
   ``sketch0``; otherwise build the objective function from the accumulators
   (Theorem 3), pick the modulation strategy, and iterate until ``|D| <= thr``.
   The block's partial answer is the final value of the l-estimator.

Both phases run over every block of a scan at once: :func:`region_sums`
computes all blocks' S/L power sums from their concatenated samples in one
``np.bincount`` pass, and :func:`modulate` runs Algorithm 2 as masked array
arithmetic over the blocks.  Each element goes through the same IEEE
operations, in the same order, as the scalar
:class:`~repro.core.modulation.IterativeModulator` loop, so round counts and
per-round values match it exactly; only the summation order of the power
sums differs from a per-block ``np.sum``.  :func:`sampling_phase`,
:func:`iteration_phase` and :meth:`BlockCalculator.run` are the one-block
calls into the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.accumulators import RegionMoments
from repro.core.boundaries import DataBoundaries
from repro.core.config import ISLAConfig
from repro.core.modulation import _K_EPSILON, ModulationCase, theorem1_step_ratio
from repro.core.result import BlockResult
from repro.errors import ConvergenceError
from repro.stats.confidence import normal_quantile
from repro.storage.block import Block

__all__ = [
    "sampling_phase",
    "iteration_phase",
    "BlockCalculator",
    "draw_sample",
    "region_sums",
    "modulate",
    "calculate_blocks",
    "RegionSums",
    "Calculation",
]

#: case codes of the arrays below, in the paper's order (code = case - 1)
_CASES = (
    ModulationCase.UNBALANCED_INCREASE,
    ModulationCase.TOWARD_EACH_OTHER_DOWN,
    ModulationCase.TOWARD_EACH_OTHER_UP,
    ModulationCase.UNBALANCED_DECREASE,
    ModulationCase.BALANCED,
)
_CASE1, _CASE2, _CASE3, _CASE4, _BALANCED = range(5)
#: fallback codes: why a block returned sketch0 without Theorem 3
_FALLBACKS = (None, "empty_S_region", "empty_L_region", "degenerate_objective")
_EMPTY_S, _EMPTY_L, _DEGENERATE = 1, 2, 3


# ---------------------------------------------------------------- Algorithm 1
def draw_sample(
    block: Block, column: str, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw block ``block``'s ``round(rate * |B_j|)`` uniform sample rows."""
    sample_size = int(round(rate * block.size))
    if sample_size <= 0 or block.size == 0:
        return np.empty(0, dtype=float)
    with obs.span("sample.draw", block=block.block_id) as sp:
        sample = block.sample_column(column, sample_size, rng)
        sp.set_tag("rows", sample_size)
    obs.counter("sample.rows", sample_size)
    return sample


class RegionSums(NamedTuple):
    """One region's ``{counter, sum, squareSum, cubeSum}`` for a batch of blocks."""

    count: np.ndarray
    total: np.ndarray
    square_sum: np.ndarray
    cube_sum: np.ndarray

    @classmethod
    def of(cls, moments: Sequence[RegionMoments]) -> "RegionSums":
        """Stack per-block accumulators into arrays."""
        return cls(
            np.array([m.count for m in moments], dtype=np.int64),
            np.array([m.total for m in moments], dtype=float),
            np.array([m.square_sum for m in moments], dtype=float),
            np.array([m.cube_sum for m in moments], dtype=float),
        )

    def moments(self, row: int) -> RegionMoments:
        """Block ``row``'s accumulator."""
        return RegionMoments(
            count=int(self.count[row]),
            total=float(self.total[row]),
            square_sum=float(self.square_sum[row]),
            cube_sum=float(self.cube_sum[row]),
        )


def region_sums(
    values: np.ndarray, sizes: Sequence[int], boundaries: DataBoundaries
) -> Tuple[RegionSums, RegionSums]:
    """Algorithm 1's ``(paramS, paramL)`` for every block of a batch.

    ``values`` holds the blocks' samples back to back and ``sizes`` the rows
    each block drew.  Every sum adds its block's S (or L) values in draw
    order.
    """
    blocks = len(sizes)
    s_mask, l_mask = boundaries.sl_masks(values)
    keep = s_mask | l_mask
    kept = values[keep]
    # slot 2j holds block j's S region, slot 2j + 1 its L region
    slot = (2 * np.repeat(np.arange(blocks), sizes) + l_mask)[keep]
    slots = 2 * blocks
    count = np.bincount(slot, minlength=slots)
    total = np.bincount(slot, weights=kept, minlength=slots)
    square = np.bincount(slot, weights=kept ** 2, minlength=slots)
    cube = np.bincount(slot, weights=kept ** 3, minlength=slots)
    return (
        RegionSums(count[0::2], total[0::2], square[0::2], cube[0::2]),
        RegionSums(count[1::2], total[1::2], square[1::2], cube[1::2]),
    )


def sampling_phase(
    block: Block,
    column: str,
    rate: float,
    boundaries: DataBoundaries,
    rng: np.random.Generator,
) -> Tuple[RegionMoments, RegionMoments, int]:
    """Algorithm 1 on one block: returns ``(paramS, paramL, sample_size)``."""
    sample = draw_sample(block, column, rate, rng)
    param_s, param_l = region_sums(sample, [sample.size], boundaries)
    return param_s.moments(0), param_l.moments(0), int(sample.size)


# ---------------------------------------------------------------- Algorithm 2
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


@dataclass(frozen=True)
class Calculation:
    """Algorithm 2's outcome for a batch of blocks, one array entry per block."""

    estimate: np.ndarray
    case: np.ndarray
    iterations: np.ndarray
    alpha: np.ndarray
    q: np.ndarray
    deviation: np.ndarray
    converged: np.ndarray
    fallback: np.ndarray
    #: True where a block exhausted ``max_iterations`` without converging
    failed: np.ndarray
    final_d: np.ndarray
    count_s: np.ndarray
    count_l: np.ndarray
    threshold: float

    def error(self, row: int) -> ConvergenceError:
        """The error of a block that exhausted ``max_iterations``."""
        return ConvergenceError(
            f"modulation did not converge after {int(self.iterations[row])} iterations "
            f"(|D| = {abs(float(self.final_d[row])):.3g} > thr = {self.threshold:.3g})"
        )

    def output(self, row: int) -> IterationOutput:
        """Block ``row``'s outcome; raises its error if it did not converge."""
        if self.failed[row]:
            raise self.error(row)
        reason = _FALLBACKS[int(self.fallback[row])]
        return IterationOutput(
            estimate=float(self.estimate[row]),
            case=_CASES[int(self.case[row])],
            iterations=int(self.iterations[row]),
            alpha=float(self.alpha[row]),
            q=float(self.q[row]),
            deviation=float(self.deviation[row]),
            converged=bool(self.converged[row]),
            used_fallback=reason is not None,
            fallback_reason=reason,
        )

    def block_results(
        self, blocks: Sequence[Block], sample_sizes: Sequence[int]
    ) -> List[BlockResult]:
        """One :class:`BlockResult` per converged block, in batch order."""
        keep = np.flatnonzero(~self.failed).tolist()
        if len(keep) < len(blocks):
            blocks = [blocks[row] for row in keep]
            sample_sizes = [sample_sizes[row] for row in keep]
        fallback = self.fallback[keep].tolist()
        # Positional arguments, in BlockResult's field order.
        return list(starmap(BlockResult, zip(
            [block.block_id for block in blocks],
            self.estimate[keep].tolist(),
            [block.size for block in blocks],
            [int(size) for size in sample_sizes],
            self.count_s[keep].tolist(),
            self.count_l[keep].tolist(),
            [_CASES[case].value for case in self.case[keep].tolist()],
            self.iterations[keep].tolist(),
            self.alpha[keep].tolist(),
            self.q[keep].tolist(),
            self.deviation[keep].tolist(),
            self.converged[keep].tolist(),
            [code != 0 for code in fallback],
            [_FALLBACKS[code] for code in fallback],
        )))


def modulate(
    param_s: RegionSums,
    param_l: RegionSums,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float] = None,
) -> Calculation:
    """Algorithm 2 over a batch of blocks: decide each strategy and iterate.

    ``sketch_interval_radius`` is the half-width of sketch0's relaxed
    confidence interval; when ``config.clamp_to_sketch_interval`` is set the
    final answers are clipped into ``sketch0 ± radius`` (the safeguard for
    extreme distributions discussed in Section VII-B).  A block that
    exhausts ``config.max_iterations`` is marked ``failed`` rather than
    raised, so one block cannot sink the others.
    """
    with obs.span("isla.iteration", blocks=len(param_s.count)) as sp:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            calculation = _modulate(
                param_s, param_l, sketch0, config, sketch_interval_radius
            )
        if sp.is_recording:
            rounds = int(calculation.iterations.sum())
            sp.set_tag("iterations", rounds)
            sp.set_tag("converged", bool(calculation.converged.all()))
            sp.set_tag("fallbacks", int(np.count_nonzero(calculation.fallback)))
            obs.counter("isla.iterations", rounds)
    return calculation


def _modulate(
    param_s: RegionSums,
    param_l: RegionSums,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float],
) -> Calculation:
    count_s, count_l = param_s.count, param_l.count
    u, v = count_s.astype(float), count_l.astype(float)

    # Fallbacks: a region with no samples cannot support Theorem 3; the sketch
    # (which carries its own relaxed precision guarantee) is the answer.
    empty = (count_s == 0) | (count_l == 0)
    fallback = np.where(count_s == 0, _EMPTY_S, np.where(count_l == 0, _EMPTY_L, 0))
    deviation = np.where(empty, np.nan, u / v)
    distance = np.abs(deviation - 1.0)
    # Case 5: sketch0 already splits S and L evenly, so it is close to µ.
    balanced = ~empty & (distance <= config.balance_tolerance)

    # The allocating parameter q (Section IV-A4).
    q_prime = np.where(
        distance <= config.mild_band,
        1.0,
        np.where(distance <= config.moderate_band, config.q_moderate, config.q_severe),
    )
    q = np.where(q_prime == 1.0, 1.0, np.where(count_s > count_l, 1.0 / q_prime, q_prime))
    q = np.where(empty | balanced, 1.0, q)

    # Theorem 3's k and c.
    sum_x, sq_x, cube_x = param_s.total, param_s.square_sum, param_s.cube_sum
    sum_y, sq_y, cube_y = param_l.total, param_l.square_sum, param_l.cube_sum
    total_square = sq_x + sq_y
    c = (sum_x + sum_y) / (u + v)
    s_denominator = (1.0 + v / (q * u)) * (u * total_square - sq_x)
    s_term = (total_square * sum_x - cube_x) / s_denominator
    l_term = v * cube_y / ((q * u + v) * sq_y)
    k = s_term + l_term - c
    degenerate = (
        ~empty & ~balanced
        & ((total_square <= 0.0) | (sq_y <= 0.0) | (s_denominator == 0.0))
    )
    fallback = np.where(degenerate, _DEGENERATE, fallback)
    modulated = ~empty & ~balanced & ~degenerate

    # Case selection from D0 and the S/L counts; contradictory indicators
    # within the moderate band are trusted to the sketch (Case 5).
    d0 = c - sketch0
    case = np.where(
        d0 < 0.0,
        np.where(count_s > count_l, _CASE2, _CASE1),
        np.where(count_s < count_l, _CASE3, _CASE4),
    )
    contradictory = (case == _CASE1) | (case == _CASE4)
    case = np.where(
        (d0 == 0.0) | (contradictory & (distance <= config.moderate_band)),
        _BALANCED,
        case,
    )
    case = np.where(modulated, case, _BALANCED)
    contradictory = (case == _CASE1) | (case == _CASE4)

    lam, lest_moves_more = _step_plan(
        contradictory, u + v, sq_x + sq_y, c, config, sketch_interval_radius
    )

    # The loop: every block moves by plan_step's deltas until |D| <= thr.
    # Per block the larger move is (1 - η)|D| / (1 ± λ) and the smaller one
    # λ times it; multiplying by ±1 or by λ in either order is exact, so
    # folding sign and λ into one coefficient per estimator keeps every
    # value bit-identical to plan_step's.
    shrink = 1.0 - config.convergence_rate
    denominator = np.where(contradictory, 1.0 - lam, 1.0 + lam)
    lest_larger = lest_moves_more | contradictory
    lest_coefficient = np.where((case == _CASE1) | (case == _CASE2), 1.0, -1.0) * np.where(
        lest_larger, 1.0, lam
    )
    sketch_coefficient = np.where((case == _CASE1) | (case == _CASE3), 1.0, -1.0) * np.where(
        lest_larger, lam, 1.0
    )
    # |k| ~ 0: the l-estimator cannot move; the sketch takes the whole
    # correction (1 - η)·D instead.
    k_zero = np.abs(k) < _K_EPSILON
    moves_alpha = ~k_zero
    any_k_zero = bool(k_zero.any())
    alpha = np.zeros_like(c)
    sketch = np.full_like(c, sketch0)
    d_value = d0.copy()
    distance_d = np.abs(d_value)
    iterations = np.zeros(len(c), dtype=np.int64)
    iterating = modulated & (case != _BALANCED)
    active = iterating & (distance_d > config.threshold)
    rounds = 0
    # Every active block has run exactly ``rounds`` rounds, so the
    # max_iterations cap is one scalar test.
    while rounds < config.max_iterations and active.any():
        larger = shrink * distance_d / denominator
        delta_sketch = larger * sketch_coefficient
        if any_k_zero:
            delta_sketch = np.where(k_zero, shrink * d_value, delta_sketch)
            np.add(alpha, larger * lest_coefficient / k, out=alpha, where=active & moves_alpha)
        else:
            np.add(alpha, larger * lest_coefficient / k, out=alpha, where=active)
        np.add(sketch, delta_sketch, out=sketch, where=active)
        np.subtract(k * alpha + c, sketch, out=d_value, where=active)
        iterations += active
        rounds += 1
        np.abs(d_value, out=distance_d)
        active &= distance_d > config.threshold

    converged = distance_d <= config.threshold
    failed = iterating & ~converged & (iterations >= config.max_iterations)
    estimate = np.where(iterating, k * alpha + c, sketch0)
    if config.clamp_to_sketch_interval and sketch_interval_radius is not None:
        low = sketch0 - sketch_interval_radius
        high = sketch0 + sketch_interval_radius
        clamped = np.where(low > estimate, low, estimate)
        clamped = np.where(high < clamped, high, clamped)
        estimate = np.where(modulated, clamped, estimate)
    return Calculation(
        estimate=estimate,
        case=case,
        iterations=iterations,
        alpha=np.where(iterating, alpha, 0.0),
        q=q,
        deviation=deviation,
        converged=np.where(iterating, converged, True),
        fallback=fallback,
        failed=failed,
        final_d=d_value,
        count_s=count_s,
        count_l=count_l,
        threshold=config.threshold,
    )


def _step_plan(
    contradictory: np.ndarray,
    count: np.ndarray,
    square_sum: np.ndarray,
    c: np.ndarray,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Each block's ``(λ, lest_moves_more)`` (Theorem 1).

    The contradictory cases, and every case when adaptive step lengths are
    off, use the fixed ``step_length_factor`` with the l-estimator moving
    more in cases 1 and 4.  Otherwise each estimator's step is proportional
    to its expected deviation from µ: the sketch's is its standard error,
    recovered from the relaxed confidence-interval radius; the
    l-estimator's combines the first-order geometric coupling (a sketch
    deviation of δ shifts the S∪L truncated mean by ``κ·δ``) with the
    sampling noise of the S∪L mean.  Whichever estimator is expected to be
    farther from µ takes the larger step, and λ is the ratio of the smaller
    to the larger deviation.  Without a sketch radius the purely geometric
    ratio ``κ`` is used.
    """
    fixed = np.full(len(c), config.step_length_factor)
    if not config.adaptive_step_length:
        return fixed, contradictory
    kappa = theorem1_step_ratio(config.p1, config.p2)
    if sketch_interval_radius is None or sketch_interval_radius <= 0.0:
        return np.where(contradictory, fixed, kappa), contradictory
    sketch_std = sketch_interval_radius / normal_quantile(config.confidence)
    variance = square_sum / count - c * c
    variance = np.where(variance > 0.0, variance, 0.0)
    c_std = np.sqrt(variance / count)
    lest_std = np.sqrt((kappa * sketch_std) ** 2 + c_std ** 2)
    larger = np.where(sketch_std > lest_std, sketch_std, lest_std)
    smaller = np.where(sketch_std < lest_std, sketch_std, lest_std)
    ratio = smaller / larger
    ratio = np.where(1e-3 > ratio, 1e-3, ratio)
    ratio = np.where(1.0 - 1e-3 < ratio, 1.0 - 1e-3, ratio)
    geometric = larger <= 0.0
    lam = np.where(contradictory, fixed, np.where(geometric, kappa, ratio))
    lest_moves_more = contradictory | (~geometric & (lest_std > sketch_std))
    return lam, lest_moves_more


def iteration_phase(
    param_s: RegionMoments,
    param_l: RegionMoments,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float] = None,
) -> IterationOutput:
    """Algorithm 2 on one block (raises ConvergenceError if it does not converge)."""
    calculation = modulate(
        RegionSums.of([param_s]),
        RegionSums.of([param_l]),
        sketch0,
        config,
        sketch_interval_radius,
    )
    return calculation.output(0)


def calculate_blocks(
    samples: Sequence[np.ndarray],
    boundaries: DataBoundaries,
    sketch0: float,
    config: ISLAConfig,
    sketch_interval_radius: Optional[float] = None,
    offset: float = 0.0,
) -> Calculation:
    """Algorithms 1 and 2 over the blocks' drawn samples, in one pass.

    ``offset`` is footnote 1's translation, added to the drawn values
    (``values[idx] + offset`` equals ``(values + offset)[idx]`` element for
    element, so no column is ever copied).
    """
    values = np.concatenate(samples) if samples else np.empty(0, dtype=float)
    if offset != 0.0:
        values = values + offset
    param_s, param_l = region_sums(values, [len(s) for s in samples], boundaries)
    return modulate(param_s, param_l, sketch0, config, sketch_interval_radius)


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
        sample = draw_sample(block, column, rate, rng)
        calculation = calculate_blocks(
            [sample], boundaries, sketch0, self.config, sketch_interval_radius
        )
        if calculation.failed[0]:
            raise calculation.error(0)
        (result,) = calculation.block_results([block], [sample.size])
        return result
