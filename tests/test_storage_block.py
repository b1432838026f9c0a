"""Unit tests for Block and Table."""

import numpy as np
import pytest

from repro.errors import StorageError, UnknownColumnError
from repro.storage.block import Block
from repro.storage.table import Table


class TestBlock:
    def test_size_and_columns(self):
        block = Block(block_id=0, columns={"a": np.arange(10.0), "b": np.ones(10)})
        assert len(block) == 10
        assert block.size == 10
        assert set(block.column_names) == {"a", "b"}

    def test_inconsistent_column_lengths_rejected(self):
        with pytest.raises(StorageError):
            Block(block_id=0, columns={"a": np.arange(3.0), "b": np.arange(4.0)})

    def test_mismatch_after_matching_columns_rejected(self):
        with pytest.raises(StorageError, match="inconsistent lengths"):
            Block(block_id=0, columns={"a": np.ones(4), "b": np.ones(4), "c": np.ones(5)})

    def test_block_without_columns_has_no_rows(self):
        block = Block(block_id=3)
        assert len(block) == 0
        assert block.size == 0

    def test_unknown_column(self):
        block = Block.from_values(1, np.arange(5.0))
        with pytest.raises(UnknownColumnError):
            block.column("missing")

    def test_sample_column_with_replacement(self, rng):
        block = Block.from_values(0, np.arange(100.0))
        sample = block.sample_column("value", 500, rng)
        assert sample.size == 500
        assert sample.min() >= 0.0 and sample.max() <= 99.0

    def test_sample_without_replacement_clips_to_size(self, rng):
        block = Block.from_values(0, np.arange(10.0))
        sample = block.sample_column("value", 50, rng, replace=False)
        assert sample.size == 10
        assert sorted(sample.tolist()) == list(map(float, range(10)))

    def test_sample_zero_returns_empty(self, rng):
        block = Block.from_values(0, np.arange(10.0))
        assert block.sample_column("value", 0, rng).size == 0

    def test_sample_empty_block_raises(self, rng):
        block = Block.from_values(0, np.empty(0))
        with pytest.raises(StorageError):
            block.sample_column("value", 5, rng)

    def test_iter_column_batches(self):
        block = Block.from_values(0, np.arange(1000.0))
        batches = list(block.iter_column("value", batch_size=300))
        assert [b.size for b in batches] == [300, 300, 300, 100]
        assert np.concatenate(batches).tolist() == list(map(float, range(1000)))

    def test_values_coerced_to_float(self):
        block = Block.from_values(0, [1, 2, 3])
        assert block.column("value").dtype == np.float64


class TestTable:
    def test_from_mapping_and_row_count(self):
        table = Table.from_mapping("t", {"x": [1, 2, 3], "y": [4, 5, 6]})
        assert table.row_count == 3
        assert set(table.column_names) == {"x", "y"}

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(StorageError):
            Table.from_mapping("t", {"x": [1, 2], "y": [1]})

    def test_unknown_column(self):
        table = Table.from_values("t", [1.0, 2.0])
        with pytest.raises(UnknownColumnError):
            table.column("nope")

    def test_with_column_returns_new_table(self):
        table = Table.from_values("t", [1.0, 2.0])
        extended = table.with_column("twice", [2.0, 4.0])
        assert "twice" not in table.column_names
        assert extended.column("twice").tolist() == [2.0, 4.0]

    def test_with_column_length_mismatch(self):
        table = Table.from_values("t", [1.0, 2.0])
        with pytest.raises(StorageError):
            table.with_column("bad", [1.0])
