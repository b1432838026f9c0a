"""Unit tests for the durable block store (snapshot, WAL, mmap, recovery)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import EmptyDataError, StorageError
from repro.query.engine import AQPEngine
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore
from repro.storage.persist import (
    DurableBlockStore,
    load_manifest,
    open_store,
    save_store,
)
from repro.storage.table import Table
from repro.storage.wal import WalRecord, WriteAheadLog, replay_wal

STMT = "SELECT AVG(value) FROM {table} PRECISION 0.5 CONFIDENCE 0.95"


def _make_store(rng, name="t", rows=5000, blocks=8) -> BlockStore:
    return BlockStore.from_array(name, rng.normal(50.0, 5.0, rows), block_count=blocks)


class TestWal:
    def test_record_round_trip(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        values = rng.normal(0.0, 1.0, 100)
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(block_id=3, column="value", values=values, version=2))
            wal.append(WalRecord(block_id=4, column="value", values=values * 2, version=3))
        records, torn = replay_wal(path)
        assert torn == 0
        assert [r.block_id for r in records] == [3, 4]
        assert [r.version for r in records] == [2, 3]
        assert np.array_equal(records[0].values, values)
        assert np.array_equal(records[1].values, values * 2)

    def test_missing_file_is_empty(self, tmp_path):
        records, torn = replay_wal(tmp_path / "absent.log")
        assert records == [] and torn == 0

    def test_torn_tail_discarded_at_every_cut(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        values = rng.normal(0.0, 1.0, 16)
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(block_id=0, column="value", values=values, version=1))
        intact = path.read_bytes()
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(block_id=1, column="value", values=values, version=2))
        full = path.read_bytes()
        # cut the second record at every byte boundary: the first record
        # must always survive, the torn second must never half-apply
        for cut in range(len(intact), len(full)):
            path.write_bytes(full[:cut])
            records, torn = replay_wal(path)
            assert len(records) == 1, f"cut at byte {cut}"
            assert torn == cut - len(intact)
        path.write_bytes(full)
        records, torn = replay_wal(path)
        assert len(records) == 2 and torn == 0

    def test_corrupt_payload_fails_crc(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(block_id=0, column="value",
                                 values=rng.normal(0.0, 1.0, 64), version=1))
        buffer = bytearray(path.read_bytes())
        buffer[len(buffer) // 2] ^= 0xFF
        path.write_bytes(bytes(buffer))
        records, torn = replay_wal(path)
        assert records == [] and torn == len(buffer)

    def test_garbage_prefix_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"this is not a log")
        records, torn = replay_wal(path)
        assert records == [] and torn == 17

    def test_closed_log_refuses_appends(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StorageError):
            wal.append(WalRecord(block_id=0, column="value",
                                 values=np.ones(3), version=1))


class TestSnapshot:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        store = _make_store(rng)
        save_store(store, tmp_path / "t", table_version=5)
        durable = open_store(tmp_path / "t", mmap=False)
        assert durable.table_version == 5
        assert durable.store.block_count == store.block_count
        assert durable.store.default_column == store.default_column
        for original, loaded in zip(store.blocks, durable.store.blocks):
            assert loaded.block_id == original.block_id
            assert np.array_equal(loaded.column("value"), original.column("value"))
        durable.close()

    def test_multi_column_round_trip(self, tmp_path, rng):
        table = Table.from_mapping(
            "multi", {"a": rng.normal(0, 1, 900), "b": rng.normal(5, 2, 900)}
        )
        store = BlockStore.from_table(table, block_count=3, default_column="b")
        save_store(store, tmp_path / "multi")
        durable = open_store(tmp_path / "multi", mmap=False)
        assert durable.store.default_column == "b"
        assert set(durable.store.column_names) == {"a", "b"}
        for original, loaded in zip(store.blocks, durable.store.blocks):
            for column in ("a", "b"):
                assert np.array_equal(loaded.column(column), original.column(column))
        durable.close()

    def test_mmap_open_is_zero_copy(self, tmp_path, rng):
        store = _make_store(rng)
        save_store(store, tmp_path / "t")
        durable = open_store(tmp_path / "t", mmap=True)
        for block in durable.store.blocks:
            values = block.column("value")
            assert isinstance(values, np.memmap) or isinstance(values.base, np.memmap)
        durable.close()

    def test_mmap_blocks_report_their_column_length(self, tmp_path, rng):
        store = BlockStore.from_array("t", rng.normal(0.0, 1.0, 1003), block_count=4)
        save_store(store, tmp_path / "t")
        durable = DurableBlockStore.open(tmp_path / "t", mmap=True)
        durable.append_block(rng.normal(0.0, 1.0, 17))
        blocks = durable.store.blocks
        assert [block.size for block in blocks] == [
            block.size for block in store.blocks
        ] + [17]
        assert [len(block) for block in blocks] == [
            block.column("value").size for block in blocks
        ]
        assert durable.store.total_rows == 1003 + 17
        durable.close()

    def test_empty_store_refused(self, tmp_path):
        with pytest.raises(StorageError):
            save_store(BlockStore(name="empty"), tmp_path / "empty")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_manifest(tmp_path)

    def test_unsupported_format_version(self, tmp_path, rng):
        store = _make_store(rng)
        save_store(store, tmp_path / "t")
        manifest_path = tmp_path / "t" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            open_store(tmp_path / "t")

    def test_missing_block_file(self, tmp_path, rng):
        store = _make_store(rng, blocks=2)
        save_store(store, tmp_path / "t")
        next(iter((tmp_path / "t" / "blocks").glob("*.npy"))).unlink()
        with pytest.raises(StorageError):
            open_store(tmp_path / "t")

    def test_snapshot_resets_wal(self, tmp_path, rng):
        store = _make_store(rng)
        durable = DurableBlockStore.create(store, tmp_path / "t")
        durable.append_block(rng.normal(0, 1, 40))
        assert (tmp_path / "t" / "wal.log").stat().st_size > 0
        durable.checkpoint()
        assert (tmp_path / "t" / "wal.log").stat().st_size == 0
        # the checkpointed snapshot carries the appended block
        reopened = open_store(tmp_path / "t", mmap=False)
        assert reopened.store.block_count == store.block_count + 1
        assert reopened.store.total_rows == durable.store.total_rows
        assert reopened.table_version == durable.table_version
        assert reopened.recovered_appends == 0
        durable.close()
        reopened.close()


class TestDurableAppends:
    def test_append_replays_on_open(self, tmp_path, rng):
        store = _make_store(rng)
        durable = DurableBlockStore.create(store, tmp_path / "t", table_version=1)
        batch = rng.normal(0, 1, 120)
        durable.append_block(batch)
        durable.close()  # no checkpoint: the append lives only in the WAL

        recovered = open_store(tmp_path / "t")
        assert recovered.recovered_appends == 1
        assert recovered.table_version == 2
        assert np.array_equal(recovered.store.blocks[-1].column("value"), batch)
        recovered.close()

    def test_append_validates_before_logging(self, tmp_path, rng):
        durable = DurableBlockStore.create(_make_store(rng), tmp_path / "t")
        with pytest.raises(StorageError):
            durable.append_block(np.ones(5), column="other")
        with pytest.raises(EmptyDataError):
            durable.append_block(np.empty(0))
        durable.close()
        # neither invalid append reached the log
        assert replay_wal(tmp_path / "t" / "wal.log")[0] == []

    def test_closed_store_refuses_mutation(self, tmp_path, rng):
        durable = DurableBlockStore.create(_make_store(rng), tmp_path / "t")
        durable.close()
        with pytest.raises(StorageError):
            durable.append_block(np.ones(3))
        with pytest.raises(StorageError):
            durable.checkpoint()


class TestEngineIntegration:
    def test_save_open_query_parity(self, tmp_path, rng):
        values = rng.normal(100.0, 20.0, 40_000)
        with AQPEngine(seed=11) as memory_engine:
            memory_engine.register_array("t", values, block_count=8)
            expected = memory_engine.execute(STMT.format(table="t"))
            memory_engine.save("t", tmp_path / "t")

        with AQPEngine(seed=11) as disk_engine:
            assert disk_engine.open(tmp_path / "t") == "t"
            result = disk_engine.execute(STMT.format(table="t"))
        assert result.value == expected.value
        assert result.sample_size == expected.sample_size

    def test_open_restores_catalog_version(self, tmp_path, rng):
        values = rng.normal(100.0, 20.0, 8_000)
        with AQPEngine(seed=0) as engine:
            engine.register_array("t", values, block_count=4)
            engine.append_array("t", rng.normal(0, 1, 50))
            engine.append_array("t", rng.normal(0, 1, 50))
            assert engine.catalog.version("t") == 3
            engine.save("t", tmp_path / "t")

        with AQPEngine(seed=0) as reopened:
            reopened.open(tmp_path / "t")
            assert reopened.catalog.version("t") == 3

    def test_durable_append_array_is_wal_logged(self, tmp_path, rng):
        values = rng.normal(100.0, 20.0, 8_000)
        with AQPEngine(seed=0) as engine:
            engine.register_array("t", values, block_count=4)
            engine.save("t", tmp_path / "t")
            engine.append_array("t", rng.normal(0, 1, 64))
            assert engine.catalog.version("t") == 2

        with AQPEngine(seed=0) as reopened:
            reopened.open(tmp_path / "t")
            assert reopened.catalog.version("t") == 2
            assert reopened.catalog.resolve("t").total_rows == 8_000 + 64

    def test_recovered_appends_touch_subscribers(self, tmp_path, rng):
        values = rng.normal(100.0, 20.0, 8_000)
        with AQPEngine(seed=0) as engine:
            engine.register_array("t", values, block_count=4)
            engine.save("t", tmp_path / "t")
            engine.append_array("t", rng.normal(0, 1, 64))

        events = []
        with AQPEngine(seed=0) as reopened:
            reopened.catalog.subscribe(
                lambda event, name, version: events.append((event, name, version))
            )
            reopened.open(tmp_path / "t")
        assert ("register", "t", 1) in events
        assert ("touch", "t", 2) in events

    def test_open_under_alias(self, tmp_path, rng):
        with AQPEngine(seed=0) as engine:
            engine.register_array("t", rng.normal(0, 1, 1000), block_count=2)
            engine.save("t", tmp_path / "t")
        with AQPEngine(seed=0) as other:
            assert other.open(tmp_path / "t", name="renamed") == "renamed"
            assert "renamed" in other.tables


class TestCatalogPersistedVersions:
    def test_register_restores_version(self, rng):
        from repro.storage.catalog import Catalog

        catalog = Catalog()
        store = _make_store(rng, rows=100, blocks=2)
        assert catalog.register(store, version=7) == 7
        assert catalog.version("t") == 7

    def test_register_version_never_regresses(self, rng):
        from repro.storage.catalog import Catalog

        catalog = Catalog()
        store = _make_store(rng, rows=100, blocks=2)
        for _ in range(9):
            catalog.register(store)
        # a stale manifest version below the live counter must not win
        assert catalog.register(store, version=3) == 10
