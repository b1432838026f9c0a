"""The ISLA aggregator facade: Pre-estimation → Calculation → Summarization.

:class:`ISLAAggregator` is the main entry point of the library::

    from repro import ISLAAggregator, ISLAConfig, BlockStore

    store = BlockStore.from_array("sensor", values, block_count=10)
    result = ISLAAggregator(ISLAConfig(precision=0.1)).aggregate_avg(store)
    print(result.value, result.interval)

The paper's Calculation module runs on each block independently and
Summarization merges the per-block partial answers (Section VII-E).  The
aggregator runs pre-estimation once on the caller's thread; every block's
sample draw is then one partition task of a
:class:`~repro.parallel.pool.ScanPool` scan — inline on the caller's thread
at parallelism 1 (the default), sharded across the pool's threads above it.
Each block draws from its own stream of the scan's
:class:`~repro.parallel.seeding.ScanStreams`, so a seeded answer is
bit-identical at every parallelism.

The Calculation itself runs once per scan over all surviving blocks'
samples (:func:`~repro.core.calculation.calculate_blocks`): one pass
reduces them to each block's ``paramS`` / ``paramL`` power sums, and
Algorithm 2 runs as array arithmetic over the blocks.  Those sums are also
the state the online-aggregation extension (Section VII-A) continues.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.calculation import calculate_blocks, draw_sample
from repro.core.boundaries import DataBoundaries
from repro.core.config import ISLAConfig
from repro.core.pre_estimation import PreEstimate, PreEstimator
from repro.core.result import AggregateResult, BlockResult
from repro.core.summarization import combine_block_results
from repro.errors import EmptyDataError, PartialResultError
from repro.parallel.pool import ScanPool, shared_scan_pool
from repro.parallel.seeding import ScanStreams, SeedLike
from repro.stats.confidence import ConfidenceInterval
from repro.storage.blockstore import BlockStore

__all__ = ["ISLAAggregator", "degraded_radius"]


def degraded_radius(
    precision: float, planned_samples: int, surviving_samples: int
) -> float:
    """Widened CI half-width after losing partitions.

    Definition 1 ties the half-width to the sample size through
    ``e = u * sigma / sqrt(m)``: the requested ``precision`` was budgeted for
    ``planned_samples`` draws, so an answer backed by only
    ``surviving_samples`` of them carries half-width
    ``precision * sqrt(planned / surviving)`` at the *same* confidence.
    This is what makes a degraded answer statistically honest: the
    confidence level is preserved and the interval widens to pay for the
    missing data.
    """
    if surviving_samples <= 0:
        raise PartialResultError("no surviving samples to widen a CI over")
    if planned_samples <= surviving_samples:
        return precision
    return precision * math.sqrt(planned_samples / surviving_samples)


class ISLAAggregator:
    """Leverage-based approximate AVG/SUM aggregation over a block store."""

    method = "ISLA"

    def __init__(
        self,
        config: Optional[ISLAConfig] = None,
        seed: SeedLike = None,
        pool: Optional[ScanPool] = None,
        parallelism: Optional[int] = None,
    ) -> None:
        self.config = config or ISLAConfig()
        # An explicit seed argument overrides the config seed for convenience.
        self._seed = seed if seed is not None else self.config.seed
        self._telemetry: Optional[obs.Telemetry] = None
        self._owned_telemetry: Optional[obs.Telemetry] = None
        self._pool = pool
        resolved = parallelism if parallelism is not None else self.config.parallelism
        #: shards the block scan may run concurrently (1 = inline)
        self.parallelism = max(1, int(resolved)) if resolved is not None else 1
        timeout_ms = self.config.straggler_timeout_ms
        #: per-shard straggler deadline in seconds (None disables the watchdog)
        self.straggler_timeout = (
            timeout_ms / 1000.0 if timeout_ms is not None else None
        )

    @property
    def pool(self) -> ScanPool:
        """The scan pool partition shards are submitted to."""
        if self._pool is None:
            self._pool = shared_scan_pool()
        return self._pool

    @property
    def telemetry(self) -> Optional[obs.Telemetry]:
        """Where the last run's spans went under a forced config toggle."""
        return self._telemetry

    def _telemetry_scope(self):
        """Honour a forced ``config.telemetry`` toggle.

        ``None`` defers to the ambient telemetry.  When the toggle already
        matches the ambient switch, spans keep flowing to the ambient sink
        (e.g. the engine's, an EXPLAIN ANALYZE capture or the
        ``REPRO_TELEMETRY`` default); otherwise an aggregator-owned instance
        with the forced switch is activated.  Either way :attr:`telemetry`
        names the sink.
        """
        forced = self.config.telemetry
        if forced is None:
            return nullcontext()
        ambient = obs.active_telemetry()
        if ambient.enabled == forced:
            self._telemetry = ambient
            return nullcontext()
        if self._owned_telemetry is None or self._owned_telemetry.enabled != forced:
            self._owned_telemetry = obs.Telemetry(enabled=forced)
        self._telemetry = self._owned_telemetry
        return self._owned_telemetry.activate()

    # ------------------------------------------------------------------ AVG
    def aggregate_avg(
        self,
        store: BlockStore,
        column: Optional[str] = None,
        *,
        rate: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        pre_estimate: Optional[PreEstimate] = None,
    ) -> AggregateResult:
        """Approximate ``AVG(column)`` over ``store``.

        Parameters
        ----------
        store:
            The partitioned table.
        column:
            Column to aggregate; defaults to the store's default column.
        rate:
            Optional override of the sampling rate (the experiments use this
            to give ISLA one third of the baselines' budget).  When omitted
            the rate comes from Eq. 1 via pre-estimation.
        rng:
            Optional generator whose seed sequence keys the scan's streams
            in place of the aggregator's seed.
        pre_estimate:
            Re-use an existing pre-estimate (the online extension passes the
            one from the previous round).

        Partitions that fail (fault injection, a crashed task) are left
        out: the answer is re-estimated from the surviving blocks and its
        interval widened by :func:`degraded_radius`.
        """
        column = store.validate_column(column)
        # One block list per scan: an append racing this query must not
        # change the blocks between pre-estimation, the scan and the merge.
        store = store.snapshot()
        blocks = store.blocks
        total_rows = store.total_rows
        if total_rows == 0:
            raise EmptyDataError(f"store {store.name!r} has no rows")
        streams = ScanStreams(rng if rng is not None else self._seed)

        with self._telemetry_scope(), obs.stopwatch(
            "isla.aggregate",
            table=store.name,
            column=column,
            method=self.method,
            parallelism=self.parallelism,
            partitions=len(blocks),
        ) as watch:
            estimate = pre_estimate or PreEstimator(self.config).estimate(
                store, column, streams.pre_phase
            )
            sampling_rate = rate if rate is not None else estimate.sampling_rate

            # Negative data are handled by the translation trick of footnote 1:
            # shift the boundaries and the drawn values into positive
            # territory, aggregate, then shift the answer back.
            offset = self._translation_offset(estimate)
            sketch_shifted = estimate.sketch0 + offset
            boundaries = DataBoundaries.from_sketch(
                sketch_shifted,
                estimate.sigma,
                p1=self.config.p1,
                p2=self.config.p2,
            )

            def draw(index: int) -> np.ndarray:
                block = blocks[index]
                with obs.span("isla.block", block=block.block_id) as sp:
                    sample = draw_sample(
                        block, column, sampling_rate, streams.generator(index)
                    )
                    sp.set_tag("sample_size", sample.size)
                return sample

            # Partition tasks only draw; the Calculation runs once over every
            # surviving block's sample on this thread.
            scan = self.pool.scan_partial(
                draw,
                range(len(blocks)),
                self.parallelism,
                table=store.name,
                keys=[block.block_id for block in blocks],
                straggler_timeout=self.straggler_timeout,
            )
            failed = set(scan.failed_indices)
            drawn = [index for index in range(len(blocks)) if index not in failed]
            samples = [scan.results[index] for index in drawn]
            calculation = calculate_blocks(
                samples,
                boundaries,
                sketch_shifted,
                self.config,
                sketch_interval_radius=estimate.relaxed_precision,
                offset=offset,
            )
            for row in np.flatnonzero(calculation.failed).tolist():
                index = drawn[row]
                scan.fail(index, blocks[index].block_id, calculation.error(row))
            block_results: List[BlockResult] = calculation.block_results(
                [blocks[index] for index in drawn], [sample.size for sample in samples]
            )
            if not block_results:
                raise PartialResultError(
                    f"every partition of {store.name!r} failed "
                    f"({len(scan.failures)} failures, first: {scan.failures[0].error!r})"
                )
            obs.counter("parallel.partitions", len(block_results))
            if scan.failures:
                obs.counter("degraded.partitions_lost", len(scan.failures))
                watch.set_tag("failed_partitions", len(scan.failures))
            combined = combine_block_results(block_results) - offset
            watch.set_tag("sampling_rate", sampling_rate)
            watch.set_tag("blocks", len(block_results))
        elapsed = watch.elapsed_seconds

        degraded = not scan.ok
        surviving_samples = sum(block.sample_size for block in block_results)
        surviving_rows = sum(block.block_size for block in block_results)
        radius = self.config.precision
        if degraded:
            # The rate was budgeted for the full table; re-derive the planned
            # draw count and widen the interval for the samples we lost.
            planned_samples = max(
                surviving_samples, int(round(sampling_rate * total_rows))
            )
            radius = degraded_radius(
                self.config.precision, planned_samples, surviving_samples
            )
            obs.counter("degraded.answers")

        interval = ConfidenceInterval(
            center=combined,
            radius=radius,
            confidence=self.config.confidence,
        )
        return AggregateResult(
            value=combined,
            aggregate="avg",
            column=column,
            table=store.name,
            precision=self.config.precision,
            confidence=self.config.confidence,
            interval=interval,
            sampling_rate=sampling_rate,
            sample_size=surviving_samples,
            sketch0=estimate.sketch0,
            sigma_estimate=estimate.sigma,
            data_size=total_rows,
            block_results=tuple(block_results),
            method=self.method,
            elapsed_seconds=elapsed,
            translation_offset=offset,
            degraded=degraded,
            failed_partitions=tuple(sorted(scan.failed_keys)),
            sample_fraction=surviving_rows / total_rows,
        )

    # ------------------------------------------------------------------ SUM
    def aggregate_sum(
        self,
        store: BlockStore,
        column: Optional[str] = None,
        *,
        rate: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> AggregateResult:
        """Approximate ``SUM(column)``: the AVG answer multiplied by ``M``."""
        avg_result = self.aggregate_avg(store, column, rate=rate, rng=rng)
        data_size = avg_result.data_size
        # Scaling by M scales the interval too, including a degraded AVG's
        # widened radius.
        return replace(
            avg_result,
            value=avg_result.value * data_size,
            aggregate="sum",
            precision=avg_result.precision * data_size,
            interval=ConfidenceInterval(
                center=avg_result.value * data_size,
                radius=avg_result.interval.radius * data_size,
                confidence=avg_result.confidence,
            ),
        )

    # ------------------------------------------------------------- internals
    def _translation_offset(self, estimate: PreEstimate) -> float:
        """Shift applied so the working values are positive (footnote 1).

        The shift is derived from the pre-estimate: if the bulk of the
        distribution (sketch0 - p2*sigma, with a one-sigma margin) could dip
        below zero, everything is translated up by that amount.
        """
        lower_reach = estimate.sketch0 - (self.config.p2 + 1.0) * estimate.sigma
        if lower_reach >= 0.0:
            return 0.0
        return -lower_reach

