"""The seed-determinism contract shared by ``serve`` and ``parallel``.

Both concurrency layers of the system follow one rule so that seeded runs
are bit-for-bit reproducible regardless of how much hardware executes them:

**every independently scheduled unit of randomness draws from its own
stream, named by a key that does not depend on worker count or
scheduling.**

* The serving layer (:mod:`repro.serve`) spawns one
  ``np.random.SeedSequence`` child per *submitted query*, in submission
  order, so a seeded :class:`~repro.serve.QueryService` answers identically
  no matter how its worker threads interleave.
* Every scan (ISLA, each sampling baseline) derives its streams from the
  scan's key — its seed — plus the partition index, with no spawn tree.
  This is the counter/offset idea of Salmon et al., "Parallel Random
  Numbers: As Easy as 1, 2, 3" (SC 2011): the key seeds one ``PCG64`` per
  scan, and partition *i*'s stream *s* is that scan's base state advanced
  by ``(i * S + s) * 2**64`` draws (``S`` streams per partition), while the
  pre-phase (pilot sampling, pre-estimation, block selection) draws from a
  disjoint offset.  Worker threads only decide *when* a partition runs,
  never *which stream* it consumes, so estimates and confidence bounds are
  bit-identical at parallelism 1, 2, 4, ... for the same seed.

``PCG64.advance`` costs about as much as one draw, and each thread realises
partition streams on one bit generator it reuses, so a partition's stream
costs a few microseconds instead of a ``SeedSequence`` spawn plus a fresh
generator.

The two layers compose: a served query's child seed is the key of that
query's scan.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

__all__ = ["SeedLike", "ScanStreams", "as_seed_sequence", "STREAM_STRIDE"]

#: anything the scan backend accepts as a reproducibility root
SeedLike = Union[None, int, np.integer, np.random.SeedSequence, np.random.Generator]

#: draws each stream owns before it would run into the next one
STREAM_STRIDE = 2**64

#: where a scan's streams start along its key's PCG64 sequence: half a period
#: away from the draws a caller's own ``default_rng(seed)`` makes
_SCAN_OFFSET = 2**127

#: one scratch generator per thread; :meth:`ScanStreams.generator` overwrites
#: its whole state before every use, so no draw depends on an earlier caller
_local = threading.local()


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalise ``seed`` into a :class:`np.random.SeedSequence` root.

    ``None`` and integers build a fresh sequence; an existing sequence is
    *rebuilt* from its entropy and spawn key (the serving layer passes the
    per-query child it spawned at submit time) so the caller's object is
    never mutated; a ``Generator`` contributes its own bit generator's
    sequence, so explicitly-seeded generators stay reproducible.
    """
    if isinstance(seed, np.random.Generator):
        state_seq = seed.bit_generator.seed_seq
        seed = state_seq if isinstance(state_seq, np.random.SeedSequence) else None
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
    return np.random.SeedSequence(seed)


class ScanStreams:
    """The random streams of one scan, all derived from the scan's key.

    :attr:`pre_phase` is the scan's own generator for the serial pre-phase
    on the caller's thread; :meth:`generator` realises a partition's stream
    on the calling thread.  The streams depend only on the key and the
    ``(partition, stream)`` index — never on the pool size — which is what
    makes seeded scans bit-identical across parallelism levels.
    """

    __slots__ = ("streams_per_partition", "pre_phase", "_base")

    def __init__(self, seed: SeedLike, streams_per_partition: int = 1) -> None:
        if streams_per_partition < 1:
            raise ValueError(
                f"streams_per_partition must be positive, got {streams_per_partition}"
            )
        self.streams_per_partition = int(streams_per_partition)
        bit_generator = np.random.PCG64(as_seed_sequence(seed))
        bit_generator.advance(_SCAN_OFFSET)
        # partition streams start one stride past this (pre-phase) state
        self._base = bit_generator.state
        self.pre_phase = np.random.Generator(bit_generator)

    def generator(self, partition: int, stream: int = 0) -> np.random.Generator:
        """Stream ``stream`` of partition ``partition``, on this thread's generator.

        The returned generator is reused by the next call on the same
        thread, so a partition task must finish with one stream before it
        asks for another.
        """
        # a negative partition or an out-of-range stream would alias
        # another partition's stream (or the pre-phase's)
        if partition < 0:
            raise ValueError(f"partition must be non-negative, got {partition}")
        if not 0 <= stream < self.streams_per_partition:
            raise ValueError(
                f"stream must lie in [0, {self.streams_per_partition}), got {stream}"
            )
        try:
            generator = _local.generator
        except AttributeError:
            generator = _local.generator = np.random.Generator(np.random.PCG64())
        bit_generator = generator.bit_generator
        bit_generator.state = self._base
        bit_generator.advance(
            (1 + partition * self.streams_per_partition + stream) * STREAM_STRIDE
        )
        return generator
