"""The numpy behaviour ``BlockStore.pilot_sample``'s single draw rests on.

``Generator.integers`` with an array of upper bounds draws each element by
the same bounded rejection method, on the same bit stream, as one scalar
call per bound.  So one array-bounded call returns the concatenated
per-block draws and leaves the generator in the same state.  If a numpy
release changes this, seeded answers move; this test names the cause.
"""

import numpy as np

CONTRACT = (
    "rng.integers(0, np.repeat(highs, counts)) no longer equals one "
    "rng.integers(0, high, size=count) call per bound; BlockStore.pilot_sample "
    "relies on it for seeded answers (DESIGN.md §2). numpy " + np.__version__
)


def per_call(rng, highs, counts):
    return np.concatenate(
        [rng.integers(0, int(high), size=int(count)) for high, count in zip(highs, counts)]
    )


def test_array_bound_draw_equals_per_call_draws():
    layouts = np.random.default_rng(2019)
    for trial in range(60):
        k = int(layouts.integers(1, 16))
        highs = layouts.integers(1, 100_000, size=k)
        highs[0] = 1  # a one-row block draws nothing
        if trial % 2:
            highs[-1] = 2**33 + 5  # above 32 bits: the 64-bit path
        counts = layouts.integers(0, 40, size=k)
        counts[-1] = max(int(counts[-1]), 1)
        seed = int(layouts.integers(0, 2**63))
        expected_rng = np.random.default_rng(seed)
        actual_rng = np.random.default_rng(seed)
        for rng in (expected_rng, actual_rng):
            rng.integers(0, 9, size=trial % 3)  # leave half a word buffered
        expected = per_call(expected_rng, highs, counts)
        actual = actual_rng.integers(0, np.repeat(highs, counts))
        assert np.array_equal(actual, expected), CONTRACT
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state, CONTRACT
