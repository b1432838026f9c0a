"""Unit tests for BlockStore."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDataError, StorageError, UnknownColumnError
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore, resolve_block_share
from repro.storage.table import Table


class TestConstruction:
    def test_from_array_even_blocks(self):
        store = BlockStore.from_array("t", np.arange(1000.0), block_count=10)
        assert store.block_count == 10
        assert store.total_rows == 1000
        assert all(block.size == 100 for block in store.blocks)

    def test_from_array_uneven_division(self):
        store = BlockStore.from_array("t", np.arange(103.0), block_count=10)
        assert store.total_rows == 103
        assert store.block_count == 10

    def test_from_table_partitions_all_columns(self):
        table = Table.from_mapping("t", {"a": np.arange(100.0), "b": np.arange(100.0) * 2})
        store = BlockStore.from_table(table, block_count=4)
        assert store.block_count == 4
        assert store.has_column("a") and store.has_column("b")

    def test_from_block_arrays(self):
        store = BlockStore.from_block_arrays("t", [[1.0, 2.0], [3.0, 4.0, 5.0]])
        assert store.block_count == 2
        assert store.block_sizes().tolist() == [2.0, 3.0]

    def test_blocks_sorted_by_id(self):
        from repro.storage.block import Block

        blocks = [Block.from_values(2, [1.0]), Block.from_values(0, [2.0]),
                  Block.from_values(1, [3.0])]
        store = BlockStore.from_blocks("t", blocks)
        assert [b.block_id for b in store.blocks] == [0, 1, 2]


class TestValidation:
    def test_validate_default_column(self, small_store):
        assert small_store.validate_column(None) == "value"

    def test_validate_unknown_column(self, small_store):
        with pytest.raises(UnknownColumnError):
            small_store.validate_column("nope")

    def test_empty_store_rejected(self):
        store = BlockStore(name="empty")
        with pytest.raises(EmptyDataError):
            store.validate_column(None)


class TestSampling:
    def test_pilot_sample_size_roughly_proportional(self, small_store, rng):
        pilot = small_store.pilot_sample(None, 400, rng)
        assert 380 <= pilot.size <= 420

    def test_pilot_sample_requires_positive_size(self, small_store, rng):
        with pytest.raises(StorageError):
            small_store.pilot_sample(None, 0, rng)

    def test_uniform_sample_rate(self, small_store, rng):
        sample = small_store.uniform_sample(None, 0.05, rng)
        expected = 0.05 * small_store.total_rows
        assert abs(sample.size - expected) <= small_store.block_count

    def test_uniform_sample_invalid_rate(self, small_store, rng):
        with pytest.raises(StorageError):
            small_store.uniform_sample(None, 0.0, rng)
        with pytest.raises(StorageError):
            small_store.uniform_sample(None, 1.5, rng)

    def test_exact_mean_and_sum(self):
        values = np.arange(1.0, 101.0)
        store = BlockStore.from_array("t", values, block_count=5)
        assert store.exact_mean() == pytest.approx(50.5)
        assert store.exact_sum() == pytest.approx(5050.0)

    def test_full_column_concatenates_all_blocks(self):
        values = np.arange(30.0)
        store = BlockStore.from_array("t", values, block_count=3)
        assert np.array_equal(np.sort(store.full_column()), values)

    def test_resolve_block_share_rounds_normally_above_half(self, rng):
        assert resolve_block_share(0.05, 100, rng) == 5
        assert resolve_block_share(0.01, 250, rng) == 2  # banker's rounding of 2.5
        assert resolve_block_share(0.5, 0, rng) == 0

    def test_resolve_block_share_sub_rounding_draw_is_probabilistic(self):
        # expected share 0.2: rounding alone would always return 0 and the
        # block could never contribute — the probabilistic draw restores an
        # expected contribution of rate * size
        rate, size, trials = 0.02, 10, 20_000
        rng = np.random.default_rng(123)
        draws = sum(resolve_block_share(rate, size, rng) for _ in range(trials))
        assert 0 < draws < trials
        assert draws / trials == pytest.approx(rate * size, rel=0.1)

    def test_uniform_sample_unbiased_on_skewed_block_sizes(self):
        # one huge block plus many tiny ones: with plain round() the tiny
        # blocks (expected share 0.1 each) would never be sampled and the
        # estimate would collapse onto the big block's distribution
        rate = 0.01
        big = np.zeros(10_000)
        tiny = [np.full(10, 100.0) for _ in range(200)]
        store = BlockStore.from_block_arrays("t", [big] + tiny)
        tiny_rows = sum(len(t) for t in tiny)
        expected_mean = 100.0 * tiny_rows / store.total_rows

        rng = np.random.default_rng(7)
        totals = []
        tiny_hits = 0
        for _ in range(400):
            sample = store.uniform_sample(None, rate, rng)
            totals.append(sample)
            tiny_hits += int(np.any(sample == 100.0))
        pooled = np.concatenate(totals)
        # the tiny blocks do contribute...
        assert tiny_hits > 0
        # ...the overall sample size stays at rate * M in expectation...
        assert pooled.size / 400 == pytest.approx(rate * store.total_rows, rel=0.1)
        # ...and the pooled sample mean is unbiased, not collapsed to 0.0
        assert pooled.mean() == pytest.approx(expected_mean, rel=0.15)


def reference_pilot(store, column, sample_size, rng):
    """The block-by-block pilot draw: one ``sample_column`` call per block."""
    column = store.validate_column(column)
    if sample_size <= 0:
        raise StorageError(f"pilot sample_size must be positive, got {sample_size}")
    sizes = store.block_sizes()
    total = sizes.sum()
    if total == 0:
        raise EmptyDataError(f"block store {store.name!r} is empty")
    pieces = []
    for block, size in zip(store.blocks, sizes):
        share = max(1, int(round(sample_size * size / total))) if size > 0 else 0
        if share > 0:
            pieces.append(block.sample_column(column, share, rng))
    if not pieces:
        raise EmptyDataError(f"block store {store.name!r} produced an empty pilot sample")
    return np.concatenate(pieces)


def layout_store(sizes):
    """A store whose block ``j`` holds ``sizes[j]`` distinct values."""
    starts = np.cumsum([0] + list(sizes))
    return BlockStore.from_block_arrays(
        "layout", [np.arange(start, start + size, dtype=float)
                   for start, size in zip(starts, sizes)]
    )


class TestPilotSampleOracle:
    """``pilot_sample``'s single bounded draw against the per-block loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(
            st.one_of(st.just(0), st.integers(1, 50), st.integers(1, 5_000)),
            min_size=1, max_size=24,
        ).filter(any),
        sample_size=st.integers(1, 12_000),
        seed=st.integers(0, 2**32 - 1),
        warm=st.integers(0, 3),
    )
    # one block; sample_size above M; zero-row blocks
    @example(sizes=[7], sample_size=3, seed=1, warm=0)
    @example(sizes=[3, 5], sample_size=20, seed=2, warm=0)
    @example(sizes=[0, 4, 0, 9, 0], sample_size=5, seed=3, warm=1)
    # shares of exactly .5: 0.5 -> 1 (the floor of one), 1.5 -> 2, 2.5 -> 2
    @example(sizes=[1, 3], sample_size=2, seed=4, warm=0)
    @example(sizes=[5, 5, 10], sample_size=1, seed=5, warm=0)
    @example(sizes=[1, 1, 2], sample_size=10, seed=6, warm=1)
    def test_matches_the_per_block_loop(self, sizes, sample_size, seed, warm):
        store = layout_store(sizes)
        expected_rng = np.random.default_rng(seed)
        actual_rng = np.random.default_rng(seed)
        # an odd number of 32-bit draws leaves half a 64-bit word buffered
        expected_rng.integers(0, 7, size=warm)
        actual_rng.integers(0, 7, size=warm)
        expected = reference_pilot(store, None, sample_size, expected_rng)
        actual = store.pilot_sample(None, sample_size, actual_rng)
        assert np.array_equal(actual, expected)
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_ties_round_half_to_even(self, rng):
        # shares 2.5, 2.5, 5.0 round to 2, 2, 5, as Python's round does
        store = layout_store([5, 5, 10])
        pilot = store.pilot_sample(None, 10, rng)
        assert pilot.size == 9
        assert np.count_nonzero(pilot < 5) == 2
        assert np.count_nonzero(pilot >= 10) == 5

    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_non_positive_size_raises_before_drawing(self, small_store, sample_size):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(StorageError, match="must be positive"):
            small_store.pilot_sample(None, sample_size, rng)
        assert rng.bit_generator.state == before

    def test_store_of_empty_blocks_raises(self):
        store = BlockStore.from_blocks(
            "hollow", [Block.from_values(0, np.empty(0)), Block.from_values(1, np.empty(0))]
        )
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(EmptyDataError, match="is empty"):
            store.pilot_sample(None, 10, rng)
        assert rng.bit_generator.state == before

    def test_store_without_blocks_raises(self, rng):
        with pytest.raises(EmptyDataError, match="has no blocks"):
            BlockStore(name="none").pilot_sample(None, 10, rng)

    def test_unknown_column_raises(self, small_store, rng):
        with pytest.raises(UnknownColumnError):
            small_store.pilot_sample("nope", 10, rng)


class TestAppendBlock:
    def test_append_assigns_next_id(self, small_store):
        before = small_store.block_count
        block = small_store.append_block(np.arange(5.0))
        assert block.block_id == before
        assert small_store.block_count == before + 1

    def test_total_rows_counts_appended_blocks(self, small_store):
        small_store.append_block(np.arange(7.0))
        small_store.append_block(np.arange(3.0))
        assert small_store.total_rows == sum(
            block.column("value").size for block in small_store.blocks
        )
        assert small_store.block_sizes()[-2:].tolist() == [7.0, 3.0]

    def test_append_empty_rejected(self, small_store):
        with pytest.raises(EmptyDataError):
            small_store.append_block(np.empty(0))

    def test_append_wrong_column_rejected(self, small_store):
        with pytest.raises(StorageError):
            small_store.append_block(np.arange(5.0), column="other")

    def test_first_append_to_empty_store_checks_default_column(self):
        # regression: the default-column check used to be skipped when the
        # store had no blocks yet, so the first append could create a store
        # whose own default column no block carries
        store = BlockStore(name="fresh", default_column="value")
        with pytest.raises(StorageError):
            store.append_block(np.arange(3.0), column="other")
        assert store.block_count == 0
        block = store.append_block(np.arange(3.0))
        assert block.has_column("value")
