"""Data boundaries and the five data regions (paper Section IV-A1).

The distribution is cut into five regions around the sketch estimator using
the "3-sigma rule" inspired boundaries:

====  =================================================  =====================
Code  Range                                              Role in AVG
====  =================================================  =====================
TS    (-inf, sketch0 - p2*sigma]                         discarded outlier
S     (sketch0 - p2*sigma, sketch0 - p1*sigma)           participates (low side)
N     [sketch0 - p1*sigma, sketch0 + p1*sigma]           discarded (uninformative)
L     (sketch0 + p1*sigma, sketch0 + p2*sigma)           participates (high side)
TL    [sketch0 + p2*sigma, +inf)                         discarded outlier
====  =================================================  =====================

Only S and L samples enter the leverage computation; everything else is
dropped during the sampling phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Region", "DataBoundaries"]


class Region(IntEnum):
    """The five regions of the data division criteria."""

    TOO_SMALL = 0
    SMALL = 1
    NORMAL = 2
    LARGE = 3
    TOO_LARGE = 4

    @property
    def short_name(self) -> str:
        """The paper's two-letter code (TS, S, N, L, TL)."""
        return {
            Region.TOO_SMALL: "TS",
            Region.SMALL: "S",
            Region.NORMAL: "N",
            Region.LARGE: "L",
            Region.TOO_LARGE: "TL",
        }[self]


@dataclass(frozen=True)
class DataBoundaries:
    """The four cut points separating the five regions."""

    ts_s: float  # boundary between TS and S:     sketch0 - p2*sigma
    s_n: float   # boundary between S  and N:     sketch0 - p1*sigma
    n_l: float   # boundary between N  and L:     sketch0 + p1*sigma
    l_tl: float  # boundary between L  and TL:    sketch0 + p2*sigma

    def __post_init__(self) -> None:
        cuts = (self.ts_s, self.s_n, self.n_l, self.l_tl)
        if any(cuts[i] > cuts[i + 1] for i in range(len(cuts) - 1)):
            raise ConfigurationError(f"boundaries must be non-decreasing, got {cuts}")

    # ---------------------------------------------------------- construction
    @classmethod
    def from_sketch(
        cls, sketch0: float, sigma: float, p1: float = 0.5, p2: float = 2.0
    ) -> "DataBoundaries":
        """Build boundaries around ``sketch0`` using ``p1``/``p2`` (Fig. 3)."""
        if sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        if not 0.0 < p1 < p2:
            raise ConfigurationError(f"need 0 < p1 < p2, got p1={p1}, p2={p2}")
        return cls(
            ts_s=sketch0 - p2 * sigma,
            s_n=sketch0 - p1 * sigma,
            n_l=sketch0 + p1 * sigma,
            l_tl=sketch0 + p2 * sigma,
        )

    # -------------------------------------------------------- classification
    def classify_value(self, value: float) -> Region:
        """Region of a single value (scalar version of :meth:`classify`)."""
        if value <= self.ts_s:
            return Region.TOO_SMALL
        if value < self.s_n:
            return Region.SMALL
        if value <= self.n_l:
            return Region.NORMAL
        if value < self.l_tl:
            return Region.LARGE
        return Region.TOO_LARGE

    def classify(self, values: np.ndarray) -> np.ndarray:
        """Vectorised classification returning an array of ``Region`` codes.

        The comparisons replicate :meth:`classify_value` exactly, including
        which sides of each boundary are closed (paper Section IV-A1).
        """
        array = np.asarray(values, dtype=float)
        regions = np.full(array.shape, int(Region.NORMAL), dtype=np.int8)
        regions[array <= self.ts_s] = int(Region.TOO_SMALL)
        regions[(array > self.ts_s) & (array < self.s_n)] = int(Region.SMALL)
        regions[(array > self.n_l) & (array < self.l_tl)] = int(Region.LARGE)
        regions[array >= self.l_tl] = int(Region.TOO_LARGE)
        return regions

    def sl_masks(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean masks of the S and L values of a sample."""
        array = np.asarray(values, dtype=float)
        s_mask = (array > self.ts_s) & (array < self.s_n)
        l_mask = (array > self.n_l) & (array < self.l_tl)
        return s_mask, l_mask

    def split_sl(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the (S values, L values) of a sample in one pass."""
        array = np.asarray(values, dtype=float)
        s_mask, l_mask = self.sl_masks(array)
        return array[s_mask], array[l_mask]

    # ------------------------------------------------------------- geometry
    @property
    def center(self) -> float:
        """Mid point of the N region (equals sketch0 when built from a sketch)."""
        return (self.s_n + self.n_l) / 2.0

    @property
    def region_widths(self) -> Tuple[float, float, float]:
        """Widths of the (S, N, L) regions."""
        return (self.s_n - self.ts_s, self.n_l - self.s_n, self.l_tl - self.n_l)

    def translate(self, offset: float) -> "DataBoundaries":
        """Boundaries shifted by ``offset`` (used by the negative-data handling)."""
        return DataBoundaries(
            ts_s=self.ts_s + offset,
            s_n=self.s_n + offset,
            n_l=self.n_l + offset,
            l_tl=self.l_tl + offset,
        )
