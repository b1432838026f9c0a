"""Online (progressive) aggregation — paper Section VII-A.

Because every block keeps only its ``paramS`` / ``paramL`` power sums, a
finished aggregation can be *continued*: draw additional samples, fold them
into the same accumulators, and re-run the iteration phase.  Each refinement
therefore tightens the answer without re-reading the earlier samples — the
property the paper contrasts with classical online aggregation, which must
retain or re-weight its sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.core.accumulators import RegionMoments
from repro.core.boundaries import DataBoundaries
from repro.core.calculation import RegionSums, modulate, sampling_phase
from repro.core.config import ISLAConfig
from repro.core.pre_estimation import PreEstimate, PreEstimator
from repro.core.result import AggregateResult
from repro.core.summarization import combine_block_results
from repro.errors import EstimationError
from repro.stats.confidence import ConfidenceInterval
from repro.storage.blockstore import BlockStore

__all__ = ["OnlineState", "OnlineAggregator"]


@dataclass
class OnlineState:
    """Accumulated per-block state carried between refinement rounds."""

    pre_estimate: PreEstimate
    boundaries: DataBoundaries
    param_s: Dict[int, RegionMoments] = field(default_factory=dict)
    param_l: Dict[int, RegionMoments] = field(default_factory=dict)
    samples_drawn: Dict[int, int] = field(default_factory=dict)
    rounds: int = 0

    def total_samples(self) -> int:
        """Total samples drawn so far across blocks and rounds."""
        return sum(self.samples_drawn.values())


class OnlineAggregator:
    """Progressive ISLA aggregation with explicit refinement rounds."""

    def __init__(
        self,
        config: Optional[ISLAConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or ISLAConfig()
        self._rng = np.random.default_rng(seed if seed is not None else self.config.seed)
        self._state: Optional[OnlineState] = None
        self._store: Optional[BlockStore] = None
        self._column: Optional[str] = None

    # ------------------------------------------------------------------ API
    @property
    def state(self) -> Optional[OnlineState]:
        """The accumulated state (None before :meth:`start`)."""
        return self._state

    def start(
        self,
        store: BlockStore,
        column: Optional[str] = None,
        initial_rate: Optional[float] = None,
    ) -> AggregateResult:
        """Run the first round and remember the state for later refinement."""
        column = store.validate_column(column)
        pre_estimate = PreEstimator(self.config).estimate(store, column, self._rng)
        boundaries = DataBoundaries.from_sketch(
            pre_estimate.sketch0,
            pre_estimate.sigma,
            p1=self.config.p1,
            p2=self.config.p2,
        )
        self._store = store
        self._column = column
        self._state = OnlineState(
            pre_estimate=pre_estimate,
            boundaries=boundaries,
            param_s={block.block_id: RegionMoments() for block in store.blocks},
            param_l={block.block_id: RegionMoments() for block in store.blocks},
            samples_drawn={block.block_id: 0 for block in store.blocks},
        )
        rate = initial_rate if initial_rate is not None else pre_estimate.sampling_rate
        return self.refine(rate)

    def ingest(self, values, catalog=None) -> int:
        """Append new rows to the store as a fresh block (online append).

        The new block joins the accumulated state with empty power sums, so
        the next :meth:`refine` samples it alongside the existing blocks.
        When the store is registered in a ``catalog``, the table is touched
        so the serving layer's version-keyed result cache drops every
        answer computed before the append.  Returns the new block id.
        """
        if self._state is None or self._store is None or self._column is None:
            raise EstimationError("call start() before ingest()")
        block = self._store.append_block(
            np.asarray(values, dtype=float), column=self._column
        )
        state = self._state
        state.param_s[block.block_id] = RegionMoments()
        state.param_l[block.block_id] = RegionMoments()
        state.samples_drawn[block.block_id] = 0
        obs.counter("online.ingested_rows", block.size)
        if catalog is not None:
            catalog.touch(self._store.name)
        return block.block_id

    def refine(self, additional_rate: float) -> AggregateResult:
        """Draw more samples at ``additional_rate`` and recompute the answer."""
        if self._state is None or self._store is None or self._column is None:
            raise EstimationError("call start() before refine()")
        if additional_rate <= 0:
            raise EstimationError(f"additional_rate must be positive, got {additional_rate}")
        state = self._state
        with obs.span(
            "online.round", round=state.rounds + 1, rate=additional_rate
        ) as sp:
            drawn_this_round = 0
            for block in self._store.blocks:
                new_s, new_l, drawn = sampling_phase(
                    block, self._column, min(1.0, additional_rate), state.boundaries,
                    self._rng,
                )
                state.param_s[block.block_id].merge(new_s)
                state.param_l[block.block_id].merge(new_l)
                state.samples_drawn[block.block_id] += drawn
                drawn_this_round += drawn
            state.rounds += 1
            sp.set_tag("rows", drawn_this_round)
            sp.set_tag("total_rows", state.total_samples())
            return self._current_result()

    # ------------------------------------------------------------ internals
    def _current_result(self) -> AggregateResult:
        assert self._state is not None and self._store is not None and self._column is not None
        state = self._state
        blocks = self._store.blocks
        calculation = modulate(
            RegionSums.of([state.param_s[block.block_id] for block in blocks]),
            RegionSums.of([state.param_l[block.block_id] for block in blocks]),
            state.pre_estimate.sketch0,
            self.config,
            sketch_interval_radius=state.pre_estimate.relaxed_precision,
        )
        if calculation.failed.any():
            raise calculation.error(int(np.flatnonzero(calculation.failed)[0]))
        block_results = calculation.block_results(
            blocks, [state.samples_drawn[block.block_id] for block in blocks]
        )
        value = combine_block_results(block_results)
        interval = ConfidenceInterval(
            center=value, radius=self.config.precision, confidence=self.config.confidence
        )
        return AggregateResult(
            value=value,
            aggregate="avg",
            column=self._column,
            table=self._store.name,
            precision=self.config.precision,
            confidence=self.config.confidence,
            interval=interval,
            sampling_rate=state.pre_estimate.sampling_rate,
            sample_size=state.total_samples(),
            sketch0=state.pre_estimate.sketch0,
            sigma_estimate=state.pre_estimate.sigma,
            data_size=self._store.total_rows,
            block_results=tuple(block_results),
            method="ISLA-online",
        )
