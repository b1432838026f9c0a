"""Tests for the Hansen–Hurwitz estimator behind the SLEV baseline."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sampling.slev import hansen_hurwitz_mean


class TestHansenHurwitz:
    def test_uniform_probabilities_reduce_to_sample_mean(self, rng):
        population = rng.normal(50, 5, size=1_000)
        indices = rng.integers(0, 1_000, size=200)
        probs = np.full(200, 1.0 / 1_000)
        estimate = hansen_hurwitz_mean(population[indices], probs, population_size=1_000)
        assert estimate == pytest.approx(population[indices].mean(), rel=1e-9)

    def test_unbiased_under_pps(self, rng):
        # Probability-proportional-to-size sampling of a known population.
        population = rng.uniform(1.0, 10.0, size=500)
        probabilities = population / population.sum()
        estimates = []
        for seed in range(200):
            local = np.random.default_rng(seed)
            draws = local.choice(500, size=50, replace=True, p=probabilities)
            estimates.append(
                hansen_hurwitz_mean(population[draws], probabilities[draws], 500)
            )
        assert np.mean(estimates) == pytest.approx(population.mean(), rel=0.02)

    def test_rejects_zero_probability(self):
        with pytest.raises(EstimationError):
            hansen_hurwitz_mean([1.0], [0.0], 10)

    def test_rejects_empty_sample(self):
        with pytest.raises(EstimationError):
            hansen_hurwitz_mean([], [], 10)
