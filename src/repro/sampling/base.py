"""The baseline aggregators' shared interface and the one scan they all run.

Every baseline runs the pipeline ISLA runs (Section VII-E): a *pre phase* on
the caller's thread (the pilot sample behind a precision target, boundaries,
block selection), one or more *partition phases* — per-block tasks of a
:class:`~repro.parallel.pool.ScanPool` scan, inline on the caller's thread
at parallelism 1 — and a merge on the caller's thread.  Each partition draws
from its own stream of the scan's
:class:`~repro.parallel.seeding.ScanStreams`, so a seeded estimate is
bit-identical at every parallelism.

A subclass implements :meth:`BaselineAggregator._estimate` against a
:class:`PartitionScan`.  Globally-coupled estimators split into several
partition phases with a barrier between them: SLEV's leverage normaliser,
the STS/BILEVEL per-block pilots and EBS's value strata are each computed
by a partial pass before the sampling pass.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import EmptyDataError, PartialResultError, SamplingError
from repro.parallel.pool import ScanPool, shared_scan_pool
from repro.parallel.seeding import ScanStreams, SeedLike
from repro.stats.confidence import required_sampling_rate
from repro.storage.blockstore import BlockStore, resolve_block_share

__all__ = ["SampleEstimate", "BaselineAggregator", "PartitionScan"]

#: pilot sample size used when a baseline must estimate sigma itself
DEFAULT_PILOT_SIZE = 1000


@dataclass(frozen=True)
class SampleEstimate:
    """The answer a baseline aggregator returns."""

    value: float
    sample_size: int
    sampling_rate: float
    method: str
    details: Dict[str, Any] = field(default_factory=dict)

    def error_against(self, truth: float) -> float:
        """Absolute error against a known ground truth."""
        return abs(self.value - truth)

    def relative_error_against(self, truth: float) -> float:
        """Relative error against a known ground truth."""
        if truth == 0.0:
            return float("inf") if self.value != 0.0 else 0.0
        return abs(self.value - truth) / abs(truth)


class _PartitionsLost(Exception):
    """A partition phase lost blocks; the attempt restarts without them."""


class PartitionScan:
    """One attempt of a baseline's scan: the blocks, the rate and the streams.

    ``store`` holds the blocks this attempt scans (blocks that failed in an
    earlier attempt are left out).  Each block keeps the partition index it
    had in the full scan, so it draws from the same stream in every attempt.
    """

    def __init__(
        self,
        store: BlockStore,
        column: str,
        rate: float,
        pre_rng: np.random.Generator,
        partitions: Sequence[int],
        streams: ScanStreams,
        pool: ScanPool,
        parallelism: int,
    ) -> None:
        self.store = store
        self.column = column
        self.rate = rate
        #: the pre-phase generator, for use on the caller's thread only
        self.pre_rng = pre_rng
        #: block ids of the partitions that failed in this attempt
        self.failed: List[int] = []
        self._partitions = partitions
        self._streams = streams
        self._pool = pool
        self._parallelism = parallelism

    def map(
        self, function: Callable, *per_block: Sequence, stream: Optional[int] = None
    ) -> List:
        """``function(block, *values[, rng])`` for every block, in block order.

        ``per_block`` holds sequences aligned with the blocks, whose values
        are passed after the block; with ``stream`` set, the block's
        generator for that stream is passed last.  A failed partition ends
        the attempt once the phase has finished.
        """
        blocks = self.store.blocks
        partitions, streams = self._partitions, self._streams

        def task(index: int):
            args = [values[index] for values in per_block]
            if stream is not None:
                args.append(streams.generator(partitions[index], stream))
            return function(blocks[index], *args)

        scan = self._pool.scan_partial(
            task,
            range(len(blocks)),
            self._parallelism,
            table=self.store.name,
            keys=[block.block_id for block in blocks],
        )
        if scan.failures:
            self.failed = [blocks[failure.index].block_id for failure in scan.failures]
            raise _PartitionsLost()
        return scan.results

    def uniform_sample(self) -> np.ndarray:
        """Every block's uniform draw at the scan's rate, concatenated.

        Each block draws ``resolve_block_share(rate, |B_j|)`` rows from its
        stream 0, the per-block convention of
        :meth:`~repro.storage.blockstore.BlockStore.uniform_sample`.
        """
        column, rate = self.column, self.rate

        def draw(block, rng) -> np.ndarray:
            share = resolve_block_share(rate, block.size, rng)
            if share <= 0:
                return np.empty(0, dtype=float)
            return block.sample_column(column, share, rng)

        sample = np.concatenate(self.map(draw, stream=0))
        if sample.size == 0:
            raise EmptyDataError(
                f"sampling rate {rate} produced an empty sample over {self.store.name!r}"
            )
        return sample


class BaselineAggregator(abc.ABC):
    """A sampling-based AVG estimator running over a :class:`BlockStore`.

    Subclasses implement :meth:`_estimate`; the base class resolves the
    sampling rate (either supplied directly, as the experiments do when they
    hand ISLA a third of the baseline's budget, or derived from a
    precision/confidence target through Eq. 1 of the paper), keys the
    scan's random streams and recovers from lost partitions.
    """

    #: short method identifier used in experiment tables ("US", "STS", ...)
    method: str = "baseline"
    #: independent random streams each partition draws from
    streams_per_partition: int = 1

    def __init__(self, seed: SeedLike = None) -> None:
        self.seed = seed

    # ------------------------------------------------------------------ API
    def aggregate(
        self,
        store: BlockStore,
        column: Optional[str] = None,
        *,
        rate: Optional[float] = None,
        precision: Optional[float] = None,
        confidence: float = 0.95,
        rng: Optional[np.random.Generator] = None,
        parallelism: Optional[int] = None,
        pool: Optional[ScanPool] = None,
    ) -> SampleEstimate:
        """Estimate AVG(column) over ``store``.

        Exactly one of ``rate`` and ``precision`` must be provided: ``rate``
        fixes the sampling rate directly, while ``precision`` derives it from
        Eq. 1 using a pilot estimate of sigma drawn from the pre-phase
        stream, so the resolved rate is itself reproducible.

        ``parallelism`` is how many shards the scan may run concurrently
        (default 1: the partition tasks run inline on the caller's thread);
        ``pool`` overrides the shared scan pool; ``rng`` keys the scan's
        streams with that generator's seed sequence in place of ``seed``.
        The estimate is bit-identical at every parallelism.

        Partition failures degrade rather than fail the scan: the failed
        blocks are excluded and the estimator re-runs over the survivors
        (the pre-phase stream is rewound, and surviving partitions keep
        their streams, so the surviving draws are bit-identical to a run
        that never saw the failure).  A degraded estimate re-weights over
        the surviving blocks — the Summarization rule, applied to the blocks
        that still exist — and tags ``details`` with ``degraded``, the
        failed partition list and the surviving row fraction.
        """
        column = store.validate_column(column)
        # One block list per scan: an append racing this query must not
        # change the blocks between the pre phase and the partition phases.
        store = store.snapshot()
        pool = pool if pool is not None else shared_scan_pool()
        parallelism = max(1, int(parallelism)) if parallelism is not None else 1
        streams = ScanStreams(
            rng if rng is not None else self.seed, self.streams_per_partition
        )
        pre_rng = streams.pre_phase

        with obs.span(
            "sample.draw",
            method=self.method,
            table=store.name,
            parallelism=parallelism,
            partitions=store.block_count,
        ) as sp:
            resolved_rate = self._resolve_rate(
                store, column, rate=rate, precision=precision,
                confidence=confidence, rng=pre_rng,
            )
            # Every attempt consumes the pre-phase stream from here, so
            # excluding a failed block cannot shift the pre-phase draws.
            rewind = pre_rng.bit_generator.state
            view, partitions = store, list(range(store.block_count))
            lost_rows: Dict[int, int] = {}  # failed block id -> its rows
            while True:
                pre_rng.bit_generator.state = rewind
                scan = PartitionScan(
                    view, column, resolved_rate, pre_rng, partitions,
                    streams, pool, parallelism,
                )
                try:
                    value, sample_size, details = self._estimate(scan)
                    break
                except _PartitionsLost:
                    obs.counter("degraded.partitions_lost", len(scan.failed))
                survivors = []
                for block, partition in zip(view.blocks, partitions):
                    if block.block_id in scan.failed:
                        lost_rows[block.block_id] = block.size
                    else:
                        survivors.append((block, partition))
                if not survivors:
                    raise PartialResultError(
                        f"every partition of {store.name!r} failed under {self.method}"
                    )
                view = BlockStore.from_blocks(
                    store.name,
                    [block for block, _ in survivors],
                    default_column=store.default_column,
                )
                partitions = [partition for _, partition in survivors]
            sp.set_tag("rows", sample_size)
            sp.set_tag("rate", resolved_rate)
            if lost_rows:
                sp.set_tag("failed_partitions", len(lost_rows))
        obs.counter("parallel.partitions", view.block_count)
        obs.counter("sample.rows", sample_size)
        details = {**details, "parallelism": parallelism, "partitions": store.block_count}
        if lost_rows:
            obs.counter("degraded.answers")
            total_rows = store.total_rows
            details["degraded"] = True
            details["failed_partitions"] = sorted(lost_rows)
            details["sample_fraction"] = (
                (total_rows - sum(lost_rows.values())) / total_rows if total_rows else 1.0
            )
        return SampleEstimate(
            value=value,
            sample_size=sample_size,
            sampling_rate=resolved_rate,
            method=self.method,
            details=details,
        )

    # ------------------------------------------------------------ internals
    def _resolve_rate(
        self,
        store: BlockStore,
        column: str,
        *,
        rate: Optional[float],
        precision: Optional[float],
        confidence: float,
        rng: np.random.Generator,
    ) -> float:
        if rate is not None and precision is not None:
            raise SamplingError("provide either rate or precision, not both")
        if rate is not None:
            if not 0.0 < rate <= 1.0:
                raise SamplingError(f"sampling rate must lie in (0, 1], got {rate}")
            return float(rate)
        if precision is None:
            raise SamplingError("either rate or precision must be provided")
        pilot = store.pilot_sample(column, DEFAULT_PILOT_SIZE, rng)
        sigma = float(pilot.std())
        return required_sampling_rate(sigma, precision, confidence, store.total_rows)

    @abc.abstractmethod
    def _estimate(self, scan: PartitionScan) -> Tuple[float, int, Dict[str, Any]]:
        """Run the estimator over one scan attempt: ``(value, rows drawn, details)``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(method={self.method!r})"
