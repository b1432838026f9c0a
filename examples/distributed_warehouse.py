#!/usr/bin/env python3
"""Distributed / non-i.i.d. aggregation across heterogeneous warehouse shards.

The paper's deployment story (Sections II-C, VII-C and VII-E): data live in
blocks on different machines, each block may follow its own local
distribution, and partial answers are combined by a coordinator.  This example
builds five shards with very different local distributions (the exact setup of
the paper's non-i.i.d. experiment), then compares:

* the plain i.i.d. ISLA pipeline (single global boundaries),
* the non-i.i.d. extension (per-block boundaries + variance-weighted rates),
* the same ISLA pipeline with its per-block partitions sharded across four
  threads (same seed, so the same answer as the first), and
* round-trips the store through the paper's ``.txt`` block files.

Run with:  python examples/distributed_warehouse.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ISLAAggregator, ISLAConfig
from repro.extensions.noniid import NonIIDAggregator
from repro.storage.textio import read_blocks_from_directory, write_blocks_to_directory
from repro.workloads.noniid import NonIIDWorkload


def main() -> None:
    workload = NonIIDWorkload.paper_blocks(rows_per_block=150_000)
    store = workload.generate_store("warehouse", seed=21)
    truth = workload.true_mean()
    print("five warehouse shards with different local distributions")
    for block in store.blocks:
        values = block.column("value")
        print(f"  shard {block.block_id}: {block.size} rows, "
              f"local mean {values.mean():8.2f}, local std {values.std():6.2f}")
    print(f"  global (row-weighted) true mean: {truth:.3f}")

    config = ISLAConfig(precision=0.5)

    plain = ISLAAggregator(config, seed=5).aggregate_avg(store)
    noniid = NonIIDAggregator(config, seed=5).aggregate_avg(store)
    parallel = ISLAAggregator(config, seed=5, parallelism=4).aggregate_avg(store)

    print("\nmethod comparison")
    for name, result in (
        ("ISLA (global boundaries)", plain),
        ("ISLA non-i.i.d. extension", noniid),
        ("ISLA thread-parallel", parallel),
    ):
        print(f"  {name:28s} estimate={result.value:9.3f} "
              f"error={abs(result.value - truth):6.3f} "
              f"samples={result.sample_size:7d} "
              f"elapsed={result.elapsed_seconds * 1000:7.1f} ms")

    # --- the paper's on-disk layout: one .txt file per block ---------------
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_blocks_to_directory(store, tmp)
        loaded = read_blocks_from_directory(Path(tmp), name="warehouse_from_disk")
        roundtrip = NonIIDAggregator(config, seed=6).aggregate_avg(loaded)
        print(f"\nround-trip through {len(paths)} block .txt files: "
              f"estimate={roundtrip.value:.3f} (error {abs(roundtrip.value - truth):.3f})")


if __name__ == "__main__":
    main()
