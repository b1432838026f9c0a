"""The partitioned table all aggregation engines operate on."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import EmptyDataError, StorageError, UnknownColumnError
from repro.storage.block import Block
from repro.storage.table import Table

__all__ = ["BlockStore", "resolve_block_share"]


def resolve_block_share(rate: float, block_size: int, rng: np.random.Generator) -> int:
    """Per-block sample size at the global ``rate``, without rounding bias.

    ``round(rate * size)`` silently excludes blocks whose expected draw is
    below one half — on skewed block-size layouts the small blocks then
    never contribute, biasing estimates toward the large blocks'
    distribution.  Sub-rounding blocks instead get a probabilistic single
    row (drawn with probability ``rate * size``), which keeps the expected
    contribution of every block at ``rate * |B_j|`` rows.
    """
    if block_size <= 0:
        return 0
    expected = rate * block_size
    share = int(round(expected))
    if share == 0 and rng.random() < expected:
        share = 1
    return share


@dataclass
class BlockStore:
    """A table partitioned into blocks (the paper's set ``B`` of size ``b``).

    The store exposes exactly the operations the paper's three modules need:

    * *Pre-estimation* draws a small pilot sample with per-block sample sizes
      proportional to block sizes (:meth:`pilot_sample`).
    * *Calculation* iterates over blocks, each block sampling its own column
      at the global rate (:meth:`blocks`, :meth:`block_sizes`).
    * *Summarization* weights partial answers by ``|B_j| / M``
      (:attr:`total_rows`).
    """

    name: str
    _blocks: List[Block] = field(default_factory=list)
    default_column: str = "value"
    #: block ids excluded at load time because their on-disk payload failed
    #: CRC verification — answers over this store are degraded, never garbage
    quarantined: tuple = ()
    #: rows the quarantined blocks held according to the manifest
    quarantined_rows: int = 0

    # ------------------------------------------------------------ properties
    @property
    def blocks(self) -> Sequence[Block]:
        """The blocks, ordered by block id."""
        return tuple(self._blocks)

    @property
    def block_count(self) -> int:
        """Number of blocks ``b``."""
        return len(self._blocks)

    @property
    def total_rows(self) -> int:
        """Total data size ``M`` across all blocks."""
        return sum(block.size for block in self._blocks)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names (taken from the first block)."""
        if not self._blocks:
            return ()
        return self._blocks[0].column_names

    def block_sizes(self) -> np.ndarray:
        """Array of block sizes ``|B_j|``."""
        return np.asarray([block.size for block in self._blocks], dtype=float)

    def snapshot(self) -> "BlockStore":
        """A store over the blocks present now, unaffected by later appends.

        The blocks themselves are shared, not copied.  A scan that reads the
        block list more than once (pre-estimation, the partition scan, the
        merge) works on a snapshot, so a concurrent :meth:`append_block`
        cannot hand it two different lists.
        """
        return replace(self, _blocks=list(self._blocks))

    def has_column(self, name: str) -> bool:
        """True when every block carries column ``name``."""
        return bool(self._blocks) and all(block.has_column(name) for block in self._blocks)

    def validate_column(self, name: Optional[str]) -> str:
        """Resolve ``name`` (or the default column) and verify it exists."""
        column = name or self.default_column
        if not self._blocks:
            raise EmptyDataError(f"block store {self.name!r} has no blocks")
        if not self.has_column(column):
            raise UnknownColumnError(
                f"block store {self.name!r} has no column {column!r}; "
                f"available: {sorted(self.column_names)}"
            )
        return column

    # -------------------------------------------------------------- sampling
    def pilot_sample(
        self,
        column: Optional[str],
        sample_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniform pilot sample with per-block allocation proportional to size.

        This is how the paper draws the pilot set used to estimate ``sigma``
        and ``sketch0`` (Section III): "uniform samples are picked from each
        block with the sample size proportional to the block size".

        Every row index comes from one ``rng.integers`` call whose bound is
        each block's size repeated ``share`` times.  That draws the same
        values, and leaves ``rng`` in the same state, as one
        ``Block.sample_column`` call per block in block order (DESIGN.md §2).
        """
        column = self.validate_column(column)
        if sample_size <= 0:
            raise StorageError(f"pilot sample_size must be positive, got {sample_size}")
        sizes = self.block_sizes()
        total = sizes.sum()
        if total == 0:
            raise EmptyDataError(f"block store {self.name!r} is empty")
        # max(1, round(n * |B_j| / M)) per non-empty block; np.rint rounds
        # half to even, as Python's round does.
        shares = np.where(
            sizes > 0, np.maximum(1.0, np.rint(sample_size * sizes / total)), 0.0
        ).astype(np.int64)
        if not shares.any():
            raise EmptyDataError(f"block store {self.name!r} produced an empty pilot sample")
        indices = rng.integers(0, np.repeat(sizes.astype(np.int64), shares))
        stops = np.cumsum(shares).tolist()
        starts = [0] + stops[:-1]
        return np.concatenate([
            block.column(column)[indices[start:stop]]
            for block, start, stop in zip(self._blocks, starts, stops)
            if stop > start
        ])

    def uniform_sample(
        self,
        column: Optional[str],
        rate: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniform sample of the whole store at sampling rate ``rate``."""
        column = self.validate_column(column)
        if not 0.0 < rate <= 1.0:
            raise StorageError(f"sampling rate must lie in (0, 1], got {rate}")
        pieces = []
        for block in self._blocks:
            share = resolve_block_share(rate, block.size, rng)
            if share > 0:
                pieces.append(block.sample_column(column, share, rng))
        if not pieces:
            raise EmptyDataError(
                f"sampling rate {rate} produced an empty sample over {self.name!r}"
            )
        return np.concatenate(pieces)

    def full_column(self, column: Optional[str] = None) -> np.ndarray:
        """Materialise one column across all blocks (used for golden truths)."""
        column = self.validate_column(column)
        return np.concatenate([block.column(column) for block in self._blocks])

    def exact_mean(self, column: Optional[str] = None) -> float:
        """Exact AVG over the full data (the golden truth in experiments)."""
        values = self.full_column(column)
        if values.size == 0:
            raise EmptyDataError(f"block store {self.name!r} is empty")
        return float(values.mean())

    def exact_sum(self, column: Optional[str] = None) -> float:
        """Exact SUM over the full data."""
        return float(self.full_column(column).sum())

    # ---------------------------------------------------------- construction
    @classmethod
    def from_blocks(
        cls, name: str, blocks: Iterable[Block], default_column: str = "value"
    ) -> "BlockStore":
        """Build a store from pre-built blocks."""
        block_list = sorted(blocks, key=lambda blk: blk.block_id)
        return cls(name=name, _blocks=list(block_list), default_column=default_column)

    @classmethod
    def from_array(
        cls,
        name: str,
        values: Sequence[float],
        block_count: int = 10,
        column: str = "value",
    ) -> "BlockStore":
        """Evenly partition a flat array into ``block_count`` blocks.

        This mirrors the paper's experimental setup ("data are evenly divided
        into b parts ... saved in b .txt documents to simulate b blocks").
        """
        from repro.storage.partitioner import even_partition

        array = np.asarray(values, dtype=float)
        blocks = even_partition(array, block_count, column=column)
        return cls.from_blocks(name, blocks, default_column=column)

    @classmethod
    def from_table(
        cls, table: Table, block_count: int = 10, default_column: Optional[str] = None
    ) -> "BlockStore":
        """Evenly partition every column of a table into ``block_count`` blocks."""
        if len(table) == 0:
            raise EmptyDataError(f"table {table.name!r} is empty")
        if block_count <= 0:
            raise StorageError(f"block_count must be positive, got {block_count}")
        boundaries = np.linspace(0, len(table), block_count + 1, dtype=int)
        blocks = []
        for block_id in range(block_count):
            start, stop = int(boundaries[block_id]), int(boundaries[block_id + 1])
            columns = {name: vals[start:stop] for name, vals in table.columns.items()}
            blocks.append(Block(block_id=block_id, columns=columns))
        column = default_column or (table.column_names[0] if table.column_names else "value")
        return cls.from_blocks(table.name, blocks, default_column=column)

    @classmethod
    def from_block_arrays(
        cls,
        name: str,
        arrays: Sequence[Sequence[float]],
        column: str = "value",
    ) -> "BlockStore":
        """Build a store where each input array becomes one block.

        Used by the non-i.i.d. experiments where every block follows its own
        distribution (paper Section VIII-D).
        """
        blocks = [
            Block.from_values(block_id, np.asarray(values, dtype=float), column=column)
            for block_id, values in enumerate(arrays)
        ]
        return cls.from_blocks(name, blocks, default_column=column)

    # ------------------------------------------------------------- mutation
    def append_block(self, values: Sequence[float], column: Optional[str] = None) -> Block:
        """Append a new block of rows (the online-extension ingest path).

        The block gets the next free block id.  Callers that registered the
        store in a :class:`~repro.storage.catalog.Catalog` should ``touch``
        the table afterwards so version-keyed caches see the change.
        """
        array = np.asarray(values, dtype=float)
        if array.size == 0:
            raise EmptyDataError(f"cannot append an empty block to {self.name!r}")
        column = column or self.default_column
        next_id = (max(block.block_id for block in self._blocks) + 1) if self._blocks else 0
        block = Block.from_values(next_id, array, column=column)
        # Checked on the empty path too: appending an explicit column to a
        # fresh store must not create a store whose default column no block
        # carries.
        if not block.has_column(self.default_column):
            raise StorageError(
                f"appended block must carry the default column "
                f"{self.default_column!r} of store {self.name!r}"
            )
        self._blocks.append(block)
        return block

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockStore(name={self.name!r}, blocks={self.block_count}, "
            f"rows={self.total_rows})"
        )
