"""The batched Calculation against the scalar Algorithm 2 it replaces.

:func:`oracle_iteration` is the per-block iteration phase written with the
scalar building blocks (``allocate_q``, Theorem 3's ``ObjectiveFunction``,
``classify_case`` and ``IterativeModulator.run``).  The batched code in
:mod:`repro.core.calculation` must reproduce it: identical round counts,
cases and fallbacks, and answers within 1e-12 relative.  With the same power
sums the arithmetic is the same IEEE sequence; from raw samples only the
summation order of the sums differs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulators import RegionMoments
from repro.core.boundaries import DataBoundaries
from repro.core.calculation import (
    RegionSums,
    calculate_blocks,
    iteration_phase,
    modulate,
)
from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.core.leverage import allocate_q, deviation_degree
from repro.core.modulation import (
    IterativeModulator,
    ModulationCase,
    classify_case,
    theorem1_step_ratio,
)
from repro.core.objective import ObjectiveFunction
from repro.errors import ConvergenceError, EstimationError
from repro.stats.confidence import normal_quantile
from repro.workloads import LogNormalWorkload, NonIIDWorkload, NormalWorkload

REL = 1e-12


def _balanced(sketch0, q, deviation, reason=None):
    return dict(
        estimate=sketch0, case=ModulationCase.BALANCED, iterations=0, alpha=0.0,
        q=q, deviation=deviation, fallback=reason,
    )


def oracle_iteration(
    param_s: RegionMoments,
    param_l: RegionMoments,
    sketch0: float,
    config: ISLAConfig,
    radius: Optional[float] = None,
) -> dict:
    """Scalar Algorithm 2 on one block (raises ConvergenceError)."""
    if param_s.is_empty or param_l.is_empty:
        reason = "empty_S_region" if param_s.is_empty else "empty_L_region"
        return _balanced(sketch0, 1.0, math.nan, reason)
    deviation = deviation_degree(param_s.count, param_l.count)
    if abs(deviation - 1.0) <= config.balance_tolerance:
        return _balanced(sketch0, 1.0, deviation)
    q = allocate_q(param_s.count, param_l.count, config)
    try:
        objective = ObjectiveFunction.from_moments(param_s, param_l, q)
    except EstimationError:
        return _balanced(sketch0, q, deviation, "degenerate_objective")
    case = classify_case(
        objective.initial_value(sketch0),
        param_s.count,
        param_l.count,
        config.balance_tolerance,
        contradiction_band=config.moderate_band,
    )
    lest_deviation = sketch_deviation = None
    if radius is not None and radius > 0.0:
        sketch_deviation = radius / normal_quantile(config.confidence)
        count = param_s.count + param_l.count
        second_moment = (param_s.square_sum + param_l.square_sum) / count
        variance = max(0.0, second_moment - objective.c * objective.c)
        c_std = math.sqrt(variance / count)
        kappa = theorem1_step_ratio(config.p1, config.p2)
        lest_deviation = math.sqrt((kappa * sketch_deviation) ** 2 + c_std ** 2)
    outcome = IterativeModulator(config).run(
        objective,
        sketch0,
        case=case,
        lest_deviation=lest_deviation,
        sketch_deviation=sketch_deviation,
    )
    estimate = outcome.l_estimate
    if config.clamp_to_sketch_interval and radius is not None:
        estimate = min(max(estimate, sketch0 - radius), sketch0 + radius)
    return dict(
        estimate=estimate, case=case, iterations=outcome.iterations,
        alpha=outcome.alpha, q=q, deviation=deviation, fallback=None,
    )


def lest_moves_more(param_s, param_l, sketch0, config, radius) -> bool:
    """Which step plan the oracle's modulator picks for a consistent case."""
    q = allocate_q(param_s.count, param_l.count, config)
    objective = ObjectiveFunction.from_moments(param_s, param_l, q)
    count = param_s.count + param_l.count
    variance = max(
        0.0, (param_s.square_sum + param_l.square_sum) / count - objective.c ** 2
    )
    sketch_std = radius / normal_quantile(config.confidence)
    kappa = theorem1_step_ratio(config.p1, config.p2)
    return math.sqrt((kappa * sketch_std) ** 2 + variance / count) > sketch_std


def _close(actual: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(actual)
    return abs(actual - expected) <= REL * max(abs(expected), 1e-300)


def assert_matches_oracle(batched, expected: dict, same_sums: bool = True) -> None:
    """Same case, rounds and fallback; answers within 1e-12 relative.

    α is compared only when both sides start from the same power sums: it is
    ``(answer − c) / k``, so with a small ``k`` a last-bit difference in the
    sums moves α far more than the answer.
    """
    assert batched.case is expected["case"]
    assert batched.iterations == expected["iterations"]
    assert batched.fallback_reason == expected["fallback"]
    assert batched.q == expected["q"]
    assert _close(batched.deviation, expected["deviation"])
    assert _close(batched.estimate, expected["estimate"])
    if same_sums:
        assert abs(batched.alpha - expected["alpha"]) <= REL * max(1.0, abs(expected["alpha"]))


def constant_regions(u: int, x: float, v: int, y: float):
    """S holds ``u`` copies of ``x`` and L ``v`` copies of ``y``."""
    return (
        RegionMoments.from_values(np.full(u, x)),
        RegionMoments.from_values(np.full(v, y)),
    )


#: hand-built blocks: (name, paramS, paramL, sketch0, expected case, fallback)
NAMED_BLOCKS = [
    ("case1", *constant_regions(30, 90.0, 50, 110.0), 103.0, ModulationCase.UNBALANCED_INCREASE, None),
    ("case2", *constant_regions(50, 90.0, 30, 110.0), 98.0, ModulationCase.TOWARD_EACH_OTHER_DOWN, None),
    ("case3", *constant_regions(30, 90.0, 50, 110.0), 101.0, ModulationCase.TOWARD_EACH_OTHER_UP, None),
    ("case4", *constant_regions(50, 90.0, 30, 110.0), 96.0, ModulationCase.UNBALANCED_DECREASE, None),
    ("case5_balanced", *constant_regions(50, 90.0, 50, 110.0), 100.0, ModulationCase.BALANCED, None),
    ("case5_contradiction_band", *constant_regions(52, 90.0, 50, 110.0), 95.0, ModulationCase.BALANCED, None),
    ("empty_s", RegionMoments(), RegionMoments.from_values([110.0]), 100.0, ModulationCase.BALANCED, "empty_S_region"),
    ("empty_l", RegionMoments.from_values([90.0]), RegionMoments(), 100.0, ModulationCase.BALANCED, "empty_L_region"),
    ("empty_both", RegionMoments(), RegionMoments(), 100.0, ModulationCase.BALANCED, "empty_S_region"),
    ("degenerate", RegionMoments.from_values([-1.0, 0.5, 0.5]), RegionMoments(count=1), 0.0, ModulationCase.BALANCED, "degenerate_objective"),
    # q = 1 with constant regions makes Theorem 3's k vanish up to rounding
    ("k_near_zero", *constant_regions(51, 90.0, 50, 110.0), 100.5, ModulationCase.TOWARD_EACH_OTHER_DOWN, None),
]

CONFIGS = {
    "default": ISLAConfig(),
    "fixed_step": ISLAConfig(adaptive_step_length=False),
    "clamped": ISLAConfig(clamp_to_sketch_interval=True),
    "slow": ISLAConfig(convergence_rate=0.9, step_length_factor=0.3, threshold=1e-6),
}


class TestNamedBlocks:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("radius", [None, 0.01, 0.75, 50.0])
    @pytest.mark.parametrize("name,param_s,param_l,sketch0,case,fallback", NAMED_BLOCKS,
                             ids=[block[0] for block in NAMED_BLOCKS])
    def test_one_block_matches_the_oracle(
        self, name, param_s, param_l, sketch0, case, fallback, config_name, radius
    ):
        config = CONFIGS[config_name]
        expected = oracle_iteration(param_s, param_l, sketch0, config, radius)
        assert expected["case"] is case and expected["fallback"] == fallback
        assert_matches_oracle(
            iteration_phase(param_s, param_l, sketch0, config, radius), expected
        )

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_one_batch_matches_the_oracle_block_by_block(self, config_name):
        config = CONFIGS[config_name]
        blocks = NAMED_BLOCKS * 2
        calculation = modulate(
            RegionSums.of([block[1] for block in blocks]),
            RegionSums.of([block[2] for block in blocks]),
            100.0,
            config,
            0.75,
        )
        for row, block in enumerate(blocks):
            expected = oracle_iteration(block[1], block[2], 100.0, config, 0.75)
            assert_matches_oracle(calculation.output(row), expected)

    def test_k_near_zero_moves_only_the_sketch(self):
        param_s, param_l = constant_regions(51, 90.0, 50, 110.0)
        objective = ObjectiveFunction.from_moments(param_s, param_l, 1.0)
        assert abs(objective.k) < 1e-12
        output = iteration_phase(param_s, param_l, 100.5, ISLAConfig(), 0.75)
        assert output.iterations > 0 and output.alpha == 0.0

    @pytest.mark.parametrize("radius,expected", [(0.01, True), (50.0, False)])
    def test_both_step_plans_are_exercised(self, radius, expected):
        param_s, param_l = NAMED_BLOCKS[1][1], NAMED_BLOCKS[1][2]
        assert lest_moves_more(param_s, param_l, 98.0, ISLAConfig(), radius) is expected

    def test_exhausted_iterations_raise_like_the_oracle(self):
        config = ISLAConfig(max_iterations=2, threshold=1e-12)
        param_s, param_l = NAMED_BLOCKS[1][1], NAMED_BLOCKS[1][2]
        with pytest.raises(ConvergenceError) as oracle_error:
            oracle_iteration(param_s, param_l, 98.0, config, 0.75)
        with pytest.raises(ConvergenceError) as batched_error:
            iteration_phase(param_s, param_l, 98.0, config, 0.75)
        assert str(batched_error.value) == str(oracle_error.value)

    def test_a_failed_block_does_not_sink_the_batch(self):
        config = ISLAConfig(max_iterations=2, threshold=1e-12)
        blocks = [NAMED_BLOCKS[1], NAMED_BLOCKS[4]]  # needs rounds; balanced
        calculation = modulate(
            RegionSums.of([block[1] for block in blocks]),
            RegionSums.of([block[2] for block in blocks]),
            98.0,
            config,
        )
        assert calculation.failed.tolist() == [True, False]
        assert calculation.output(1).case is ModulationCase.BALANCED


# ------------------------------------------------------------ sampled blocks
def _samples(kind: str, blocks: int, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return [rng.normal(100.0, 20.0, rows) for _ in range(blocks)]
    if kind == "lognormal":
        return [rng.lognormal(4.0, 0.8, rows) for _ in range(blocks)]
    if kind == "negative":
        return [rng.normal(10.0, 20.0, rows) for _ in range(blocks)]
    # non-IID: every block has its own location and spread
    return [rng.normal(60.0 + 15.0 * j, 5.0 + 4.0 * j, rows) for j in range(blocks)]


def _setup(kind: str, blocks: int, seed: int):
    """Pilot-style sketch0/sigma and footnote 1's offset for a kind of data."""
    pilot = np.concatenate(_samples(kind, blocks, 200, seed + 1))
    sketch0, sigma = float(pilot.mean()), float(pilot.std())
    lower_reach = sketch0 - 3.0 * sigma
    offset = -lower_reach if lower_reach < 0.0 else 0.0
    return sketch0 + offset, sigma, offset


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["normal", "lognormal", "negative", "noniid"]),
    blocks=st.integers(1, 12),
    rows=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
    bias=st.floats(-3.0, 3.0),
    radius=st.sampled_from([None, 0.05, 0.75, 5.0]),
    adaptive=st.booleans(),
    clamp=st.booleans(),
    eta=st.sampled_from([0.3, 0.5, 0.8]),
    lam=st.sampled_from([0.2, 0.8]),
)
def test_sampled_blocks_match_the_oracle(
    kind, blocks, rows, seed, bias, radius, adaptive, clamp, eta, lam
):
    config = ISLAConfig(
        adaptive_step_length=adaptive,
        clamp_to_sketch_interval=clamp,
        convergence_rate=eta,
        step_length_factor=lam,
    )
    samples = _samples(kind, blocks, rows, seed)
    center, sigma, offset = _setup(kind, blocks, seed)
    # a biased sketch exercises the unbalanced cases
    sketch0 = center + bias * sigma / 10.0
    boundaries = DataBoundaries.from_sketch(sketch0, sigma, p1=config.p1, p2=config.p2)
    calculation = calculate_blocks(
        samples, boundaries, sketch0, config, radius, offset=offset
    )
    for row, sample in enumerate(samples):
        s_values, l_values = boundaries.split_sl(sample + offset)
        param_s = RegionMoments.from_values(s_values)
        param_l = RegionMoments.from_values(l_values)
        assert calculation.count_s[row] == param_s.count
        assert calculation.count_l[row] == param_l.count
        try:
            expected = oracle_iteration(param_s, param_l, sketch0, config, radius)
        except ConvergenceError:
            assert calculation.failed[row]
            continue
        assert_matches_oracle(calculation.output(row), expected, same_sums=False)


# ------------------------------------------------------------ parallelism
STORES = {
    "normal": lambda: NormalWorkload(24_000, mean=100.0, std=20.0, seed=7)
    .generate_store("normal", block_count=12),
    "lognormal": lambda: LogNormalWorkload(24_000, mu=4.0, sigma=0.8, seed=8)
    .generate_store("lognormal", block_count=12),
    "negative": lambda: NormalWorkload(24_000, mean=10.0, std=20.0, seed=9)
    .generate_store("negative", block_count=12),
    "noniid": lambda: NonIIDWorkload.paper_blocks(rows_per_block=3_000, seed=10)
    .generate_store("noniid"),
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_batched_answers_are_identical_at_every_parallelism(name):
    store = STORES[name]()
    config = ISLAConfig(precision=0.5)
    runs = []
    for parallelism in (None, 1, 2, 4):
        result = ISLAAggregator(config, seed=5, parallelism=parallelism).aggregate_avg(store)
        runs.append((
            result.value.hex(),
            result.sample_size,
            [(block.block_id, block.estimate.hex(), block.iterations, block.case)
             for block in result.block_results],
        ))
    assert runs[0] == runs[1] == runs[2] == runs[3]
