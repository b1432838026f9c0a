"""The partition scan every query runs on.

The scan over storage blocks is the system's hot loop, and the paper's
estimators are embarrassingly parallel over blocks: every block folds into
self-contained partial aggregates that the Summarization step merges.  ISLA
(:class:`~repro.core.isla.ISLAAggregator`), every sampling baseline
(:meth:`~repro.sampling.base.BaselineAggregator.aggregate`) and ``EXACT``
run each block as one partition task of this package's pool:

* :mod:`repro.parallel.seeding` — the seed-determinism contract: each
  partition's random stream is derived from the scan's key plus the
  partition index, shared with the serving layer, so results are
  bit-identical at any parallelism;
* :mod:`repro.parallel.pool` — the process-wide :class:`ScanPool` every
  scan submits shards to (serve workers share it, so concurrent queries
  never oversubscribe the machine).

``parallelism`` (``AQPEngine(parallelism=4)`` or
``ISLAConfig(parallelism=4)``) is how many shards one scan may run
concurrently; the default runs the partition tasks inline on the caller's
thread.
"""

from repro.parallel.pool import (
    PartialScanResult,
    PartitionFailure,
    ScanPool,
    default_parallelism,
    reset_shared_scan_pool,
    shared_scan_pool,
)
from repro.parallel.seeding import ScanStreams, SeedLike, as_seed_sequence

__all__ = [
    "PartialScanResult",
    "PartitionFailure",
    "ScanPool",
    "ScanStreams",
    "SeedLike",
    "as_seed_sequence",
    "default_parallelism",
    "reset_shared_scan_pool",
    "shared_scan_pool",
]
