"""Durable, crash-safe on-disk block storage with memory-mapped scans.

The paper's experiments persist each block as a document on disk and stream
it during sampling; this module gives the reproduction the production
equivalent: a binary store that survives process crashes and opens in
milliseconds regardless of data size.

On-disk layout::

    <directory>/
        MANIFEST.json                 # the commit point (atomic rename)
        wal.log                       # append-ahead log since last snapshot
        blocks/
            block_000000.value.npy    # one .npy file per block per column
            block_000001.value.npy
            ...

Guarantees
----------
* **Atomic snapshots** — every ``.npy`` file and the manifest are written
  to a temporary name, flushed, ``fsync``'d and renamed into place; the
  manifest rename is the commit point, so a crash mid-snapshot leaves the
  previous manifest (and the files it references) fully intact.
* **Crash-safe appends** — :meth:`DurableBlockStore.append_block` logs the
  rows to the WAL (fsync'd) *before* touching memory; reopening replays the
  log, discards a torn tail record, and recovers to the last consistent
  state.  Recovered appends bump the catalog version exactly as live ones
  did, so version-keyed result caches stay correct across restarts.
* **Zero-copy reads** — blocks open as ``np.memmap`` arrays
  (``np.load(..., mmap_mode="r")``), so opening a multi-GB store does not
  materialise it and scans stream straight from the page cache.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults, obs
from repro.errors import DataCorruptionError, EmptyDataError, StorageError
from repro.storage.block import Block
from repro.storage.blockstore import BlockStore
from repro.storage.wal import WalRecord, WriteAheadLog, replay_wal

__all__ = [
    "DurableBlockStore",
    "save_store",
    "open_store",
    "load_manifest",
    "discover_store_directories",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
BLOCKS_DIR = "blocks"


# --------------------------------------------------------------------------
# low-level atomic file helpers
# --------------------------------------------------------------------------

def _fsync_directory(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _atomic_save_array(path: Path, values: np.ndarray) -> Tuple[int, int]:
    """Write one column file atomically; returns ``(bytes, crc32)``.

    The array is serialised once into memory so the CRC covers exactly the
    bytes that land on disk — the manifest's per-column checksum then lets
    the read path prove a block file intact before mmap'ing it.
    """
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(values, dtype=float))
    payload = buffer.getvalue()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(payload), crc


def _column_filename(block_id: int, column: str) -> str:
    if os.sep in column or column.startswith("."):
        raise StorageError(f"column {column!r} cannot be persisted")
    return f"block_{block_id:06d}.{column}.npy"


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

def _build_manifest(
    store: BlockStore,
    table_version: int,
    crcs: Optional[Dict[Tuple[int, str], int]] = None,
) -> Dict[str, Any]:
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": store.name,
        "default_column": store.default_column,
        "columns": list(store.column_names),
        "table_version": int(table_version),
        "total_rows": int(store.total_rows),
        "blocks": [
            {
                "block_id": int(block.block_id),
                "rows": int(block.size),
                "files": {
                    column: f"{BLOCKS_DIR}/{_column_filename(block.block_id, column)}"
                    for column in block.column_names
                },
            }
            for block in store.blocks
        ],
    }
    # checksums are an optional manifest key: snapshots written by older
    # builds (no "crc32") still open, they just cannot be verified
    if crcs:
        for spec in manifest["blocks"]:
            block_id = spec["block_id"]
            spec["crc32"] = {
                column: crcs[(block_id, column)]
                for column in spec["files"]
                if (block_id, column) in crcs
            }
    return manifest


def load_manifest(directory: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read and validate a store manifest."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise StorageError(f"no {MANIFEST_NAME} under {Path(directory)}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise StorageError(f"corrupt manifest {path}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported store format {manifest.get('format_version')!r} "
            f"in {path} (this build reads format {FORMAT_VERSION})"
        )
    return manifest


# --------------------------------------------------------------------------
# snapshot save / open
# --------------------------------------------------------------------------

def discover_store_directories(data_dir: Union[str, os.PathLike]) -> List[Path]:
    """Durable-store directories under ``data_dir`` (or itself if it is one)."""
    root = Path(data_dir)
    if (root / MANIFEST_NAME).exists():
        return [root]
    found = sorted(path.parent for path in root.glob(f"*/{MANIFEST_NAME}"))
    if not found:
        raise StorageError(f"no durable stores ({MANIFEST_NAME}) under {root}")
    return found


def save_store(
    store: BlockStore,
    directory: Union[str, os.PathLike],
    table_version: int = 1,
) -> Path:
    """Atomically snapshot ``store`` into ``directory``.

    Every column of every block lands as one ``.npy`` file; the manifest
    rename is the commit point.  An existing snapshot in the directory is
    replaced and the WAL reset — callers appending through a
    :class:`DurableBlockStore` should use :meth:`DurableBlockStore.checkpoint`
    instead, which keeps the log handle consistent.
    """
    target = Path(directory)
    blocks_dir = target / BLOCKS_DIR
    blocks_dir.mkdir(parents=True, exist_ok=True)
    if not store.blocks:
        raise StorageError(f"refusing to snapshot empty store {store.name!r}")
    written_bytes = 0
    crcs: Dict[Tuple[int, str], int] = {}
    with obs.span(
        "persist.snapshot", table=store.name, blocks=store.block_count
    ) as sp:
        for block in store.blocks:
            for column in block.column_names:
                path = blocks_dir / _column_filename(block.block_id, column)
                size, crc = _atomic_save_array(path, block.column(column))
                written_bytes += size
                crcs[(block.block_id, column)] = crc
        _fsync_directory(blocks_dir)
        manifest = _build_manifest(store, table_version, crcs)
        payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        _atomic_write_bytes(target / MANIFEST_NAME, payload)
        # a snapshot subsumes every logged append: reset the WAL after commit
        wal_path = target / WAL_NAME
        if wal_path.exists():
            wal_path.unlink()
        _fsync_directory(target)
        sp.set_tag("bytes", written_bytes)
    obs.counter("persist.snapshot")
    obs.counter("persist.snapshot.bytes", written_bytes)
    return target / MANIFEST_NAME


def _verify_column(
    path: Path, spec: Dict[str, Any], column: str, table: str
) -> Optional[str]:
    """Reason this column file is corrupt, or ``None`` when it checks out.

    Compares the file bytes against the manifest's recorded CRC-32 (when the
    snapshot carries one); an active ``block.bitflip`` fault treats the block
    as corrupt even though the bytes on disk are fine, which is exactly how
    a flipped bit caught by the checksum would present.
    """
    block_id = int(spec["block_id"])
    injector = faults.active()
    if injector is not None and injector.bitflip(table, block_id):
        return "injected bit flip"
    expected = (spec.get("crc32") or {}).get(column)
    if expected is None:
        return None
    actual = zlib.crc32(path.read_bytes()) & 0xFFFFFFFF
    if actual != int(expected):
        return f"crc mismatch (manifest {int(expected):#010x}, file {actual:#010x})"
    return None


def _load_blocks(
    directory: Path, manifest: Dict[str, Any], mmap: bool, verify: bool = False
) -> Tuple[List[Block], List[Tuple[int, int]]]:
    """Load the manifest's blocks; returns ``(blocks, quarantined)``.

    With ``verify=True`` a block whose file fails CRC verification (or is
    missing/mis-shaped) is *quarantined* — excluded from the store and
    reported as ``(block_id, rows)`` — instead of poisoning the open.  The
    aggregators then treat quarantined blocks as failed partitions and
    answer degraded rather than reading garbage through the mmap.
    """
    mmap_mode = "r" if mmap else None
    table = str(manifest["name"])
    blocks: List[Block] = []
    quarantined: List[Tuple[int, int]] = []
    for spec in manifest["blocks"]:
        columns: Dict[str, np.ndarray] = {}
        corrupt: Optional[str] = None
        for column, relative in spec["files"].items():
            path = directory / relative
            if not path.exists():
                if verify:
                    corrupt = "missing block file"
                    break
                raise StorageError(
                    f"manifest references missing block file {path}"
                )
            if verify:
                corrupt = _verify_column(path, spec, column, table)
                if corrupt is not None:
                    break
            values = np.load(path, mmap_mode=mmap_mode)
            if values.ndim != 1 or int(values.size) != int(spec["rows"]):
                if verify:
                    corrupt = f"shape {values.shape} != {spec['rows']} rows"
                    break
                raise StorageError(
                    f"block file {path} has shape {values.shape}, "
                    f"manifest says {spec['rows']} rows"
                )
            if mmap:
                obs.counter("persist.mmap.open")
            columns[column] = values
        if corrupt is not None:
            quarantined.append((int(spec["block_id"]), int(spec["rows"])))
            obs.counter("persist.quarantined")
            with obs.span(
                "persist.quarantine",
                table=table,
                block=int(spec["block_id"]),
                reason=corrupt,
            ):
                pass
            continue
        blocks.append(Block(block_id=int(spec["block_id"]), columns=columns))
    return blocks, quarantined


def open_store(
    directory: Union[str, os.PathLike],
    mmap: bool = True,
    verify: bool = False,
) -> "DurableBlockStore":
    """Open a durable store, replaying the WAL (alias of ``DurableBlockStore.open``)."""
    return DurableBlockStore.open(directory, mmap=mmap, verify=verify)


# --------------------------------------------------------------------------
# the durable store
# --------------------------------------------------------------------------

class DurableBlockStore:
    """A :class:`BlockStore` bound to a directory, with WAL-backed appends.

    Obtain one with :meth:`create` (snapshot an existing in-memory store)
    or :meth:`open` (load a directory, replaying any crash-surviving log).
    The in-memory/mmap view is exposed as :attr:`store`; appends go through
    :meth:`append_block` which logs before applying.
    """

    def __init__(
        self,
        directory: Path,
        store: BlockStore,
        table_version: int,
        mmap: bool,
        recovered_appends: int = 0,
        recovered_torn_bytes: int = 0,
    ) -> None:
        self.directory = Path(directory)
        self.store = store
        self.table_version = int(table_version)
        self.mmap = bool(mmap)
        #: appends replayed from the WAL by :meth:`open` (0 on a clean open)
        self.recovered_appends = int(recovered_appends)
        #: bytes of torn WAL tail discarded by :meth:`open`
        self.recovered_torn_bytes = int(recovered_torn_bytes)
        self._wal = WriteAheadLog(self.directory / WAL_NAME)
        self._closed = False

    # ------------------------------------------------------------- creation
    @classmethod
    def create(
        cls,
        store: BlockStore,
        directory: Union[str, os.PathLike],
        table_version: int = 1,
        mmap: bool = True,
    ) -> "DurableBlockStore":
        """Snapshot ``store`` into ``directory`` and return the durable view.

        With ``mmap=True`` (default) the returned store re-opens its blocks
        memory-mapped from the snapshot just written, so the in-memory
        copies can be dropped by the caller.
        """
        save_store(store, directory, table_version=table_version)
        return cls.open(directory, mmap=mmap)

    @classmethod
    def open(
        cls,
        directory: Union[str, os.PathLike],
        mmap: bool = True,
        verify: bool = False,
    ) -> "DurableBlockStore":
        """Open ``directory``, replaying the append-ahead log.

        Replay stops at the first torn record; the torn tail is truncated
        away so subsequent appends extend a consistent log.  Each replayed
        append bumps the recovered table version exactly as the original
        append did before the crash.

        With ``verify=True`` every block file is checked against the
        manifest's CRC-32 before it is mmap'd; corrupt blocks are
        quarantined (listed on ``store.quarantined``) and the surviving
        store answers queries degraded instead of reading garbage.  A store
        whose blocks are *all* corrupt refuses to open.
        """
        target = Path(directory)
        with obs.span(
            "persist.open", directory=str(target), mmap=mmap, verify=verify
        ) as sp:
            manifest = load_manifest(target)
            blocks, quarantined = _load_blocks(target, manifest, mmap, verify)
            if not blocks:
                raise DataCorruptionError(
                    f"every block of {manifest['name']!r} under {target} failed "
                    f"verification ({len(quarantined)} quarantined)"
                )
            store = BlockStore.from_blocks(
                manifest["name"], blocks, default_column=manifest["default_column"]
            )
            if quarantined:
                store.quarantined = tuple(sorted(bid for bid, _ in quarantined))
                store.quarantined_rows = sum(rows for _, rows in quarantined)
                sp.set_tag("quarantined", len(quarantined))
            version = int(manifest["table_version"])

            records, torn_bytes = replay_wal(target / WAL_NAME)
            applied_count = 0
            if records or torn_bytes:
                with obs.span(
                    "persist.recovery",
                    replayed=len(records),
                    torn_bytes=torn_bytes,
                ) as rsp:
                    seen_ids = {block.block_id for block in store.blocks}
                    for record in records:
                        # Idempotent replay: a frame whose block id already
                        # exists is a duplicate delivery (the writer fsync'd,
                        # crashed before acking, and re-appended) — skip it
                        # rather than double-apply the rows.
                        if record.block_id in seen_ids:
                            obs.counter("persist.wal.duplicate")
                            continue
                        applied = store.append_block(
                            record.values, column=record.column
                        )
                        seen_ids.add(applied.block_id)
                        # quarantined blocks leave id gaps, so replayed
                        # appends may legitimately land on shifted ids
                        if applied.block_id != record.block_id and not quarantined:
                            raise StorageError(
                                f"WAL replay for {store.name!r} produced block "
                                f"{applied.block_id}, log recorded {record.block_id}"
                            )
                        applied_count += 1
                        version = max(version + 1, record.version)
                    if torn_bytes:
                        _truncate_torn_tail(target / WAL_NAME, torn_bytes)
                    rsp.set_tag("applied", applied_count)
                obs.counter("persist.wal.replayed", applied_count)
                if torn_bytes:
                    obs.counter("persist.wal.torn")
                    obs.counter("persist.wal.torn.bytes", torn_bytes)
            sp.set_tag("blocks", store.block_count)
            sp.set_tag("version", version)
        return cls(
            directory=target,
            store=store,
            table_version=version,
            mmap=mmap,
            recovered_appends=applied_count,
            recovered_torn_bytes=torn_bytes,
        )

    # ------------------------------------------------------------- mutation
    def append_block(
        self, values: Sequence[float], column: Optional[str] = None
    ) -> Block:
        """Crash-safe append: WAL first (fsync'd), memory second.

        Mirrors :meth:`BlockStore.append_block` — the new block gets the
        next free id and must carry the store's default column.  Returns
        the applied block; :attr:`table_version` is bumped so callers can
        mirror it into a :class:`~repro.storage.catalog.Catalog`.
        """
        if self._closed:
            raise StorageError(f"durable store {self.store.name!r} is closed")
        array = np.asarray(values, dtype=float)
        # validate exactly as the in-memory append will, *before* logging —
        # a record that cannot apply must never reach the WAL
        if array.size == 0:
            raise EmptyDataError(
                f"cannot append an empty block to {self.store.name!r}"
            )
        column = column or self.store.default_column
        if column != self.store.default_column:
            raise StorageError(
                f"appended block must carry the default column "
                f"{self.store.default_column!r} of store {self.store.name!r}"
            )
        next_id = (
            max(block.block_id for block in self.store.blocks) + 1
            if self.store.blocks
            else 0
        )
        record = WalRecord(
            block_id=next_id,
            column=column,
            values=array,
            version=self.table_version + 1,
        )
        self._wal.append(record)
        block = self.store.append_block(array, column=column)
        self.table_version += 1
        return block

    def checkpoint(self) -> Path:
        """Fold the logged appends into a fresh snapshot and reset the WAL."""
        if self._closed:
            raise StorageError(f"durable store {self.store.name!r} is closed")
        manifest = save_store(
            self.store, self.directory, table_version=self.table_version
        )
        # save_store unlinked the log file; reopen the handle on a fresh one
        self._wal.close()
        self._wal = WriteAheadLog(self.directory / WAL_NAME)
        return manifest

    def close(self) -> None:
        """Release the WAL handle (mmap'd blocks release with the arrays)."""
        if not self._closed:
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "DurableBlockStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableBlockStore({str(self.directory)!r}, "
            f"table={self.store.name!r}, version={self.table_version}, "
            f"blocks={self.store.block_count}, mmap={self.mmap})"
        )


def _truncate_torn_tail(path: Path, torn_bytes: int) -> None:
    size = path.stat().st_size
    with open(path, "ab") as handle:
        handle.truncate(max(0, size - torn_bytes))
        handle.flush()
        os.fsync(handle.fileno())
