"""A single block (horizontal partition) of a table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

import numpy as np

from repro.errors import StorageError, UnknownColumnError

__all__ = ["Block"]


@dataclass
class Block:
    """One horizontal partition of a table, held as named numpy columns.

    The paper's Calculation module runs independently on each block; a block
    therefore needs to expose its row count (used to weight partial answers in
    the Summarization module), provide cheap uniform sampling of a column, and
    stream values without materialising copies.
    """

    block_id: int
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {name: len(values) for name, values in self.columns.items()}
        if lengths and len(set(lengths.values())) != 1:
            raise StorageError(
                f"block {self.block_id}: columns have inconsistent lengths {lengths}"
            )
        self.columns = {
            name: np.asarray(values, dtype=float) for name, values in self.columns.items()
        }

    # ------------------------------------------------------------------ size
    def __len__(self) -> int:
        if not self.columns:
            return 0
        first = next(iter(self.columns.values()))
        return int(len(first))

    @property
    def size(self) -> int:
        """Number of rows in this block (``|B_j|`` in the paper)."""
        return len(self)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of the columns stored in this block."""
        return tuple(self.columns)

    # --------------------------------------------------------------- columns
    def column(self, name: str) -> np.ndarray:
        """Return the values of one column (no copy)."""
        try:
            return self.columns[name]
        except KeyError as exc:
            raise UnknownColumnError(
                f"block {self.block_id} has no column {name!r}; "
                f"available: {sorted(self.columns)}"
            ) from exc

    def has_column(self, name: str) -> bool:
        """Return True when the block stores ``name``."""
        return name in self.columns

    # -------------------------------------------------------------- sampling
    def sample_column(
        self,
        name: str,
        sample_size: int,
        rng: np.random.Generator,
        replace: bool = True,
    ) -> np.ndarray:
        """Draw a uniform random sample of ``sample_size`` values of a column.

        Sampling is *with replacement* by default, matching the paper's
        Bernoulli-style per-row draws; pass ``replace=False`` for a simple
        random sample without replacement (the sample size is then clipped to
        the block size).
        """
        values = self.column(name)
        if values.size == 0:
            raise StorageError(f"block {self.block_id} is empty")
        if sample_size <= 0:
            return np.empty(0, dtype=float)
        if replace:
            # The same indices rng.choice(n, size=k) draws, without its
            # argument handling (tests pin the equality).
            indices = rng.integers(0, values.size, size=sample_size)
        else:
            indices = rng.choice(
                values.size, size=min(sample_size, values.size), replace=False
            )
        return values[indices]

    def iter_column(self, name: str, batch_size: int = 65536) -> Iterator[np.ndarray]:
        """Stream a column in batches (simulates scanning a block file)."""
        values = self.column(name)
        for start in range(0, values.size, batch_size):
            yield values[start : start + batch_size]

    # ---------------------------------------------------------- construction
    @classmethod
    def from_values(
        cls,
        block_id: int,
        values: np.ndarray,
        column: str = "value",
        extra_columns: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "Block":
        """Build a single-column block (plus optional extra columns)."""
        columns: Dict[str, np.ndarray] = {column: np.asarray(values, dtype=float)}
        if extra_columns:
            for name, extra in extra_columns.items():
                columns[name] = np.asarray(extra, dtype=float)
        return cls(block_id=block_id, columns=columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Block(id={self.block_id}, rows={len(self)}, "
            f"columns={list(self.columns)})"
        )
