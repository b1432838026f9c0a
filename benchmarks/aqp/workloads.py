"""The four benchmark workloads: seeded data, statement mixes and set-up.

Every input is derived from the run's ``--seed``; the system only ever sees
the generated arrays and statements.  Set-up goes through the engine's
public calls (``register_array``, ``save``, ``open``, ``serve``) and ends
with one warm-up execution per distinct statement, so lazy imports, the
scan pool and the page cache are warm before timing starts.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import AQPEngine
from repro.workloads import NonIIDWorkload, get_workload


@dataclass(frozen=True)
class Scale:
    """Run size: full benchmark runs or the seconds-long smoke run."""

    #: divides every table's row count (and the append size)
    rows_divisor: int
    #: closed-loop queries per run when ``--seconds`` is not given
    closed_queries: Dict[str, int]
    #: open-loop queries when ``--seconds`` is not given, and their rate in q/s
    open_queries: int
    open_rate: float
    #: the open loop appends to a table after every this many queries
    append_every: int
    #: set-ups per untraced run; ``setup_s`` is their median
    setups: int
    #: query triples in the trace run's overhead comparison
    overhead_triples: int


FULL = Scale(
    rows_divisor=1,
    closed_queries={"isla_mem": 1000, "baseline_mem": 3000, "isla_mmap_skewed": 1000},
    open_queries=2000,
    open_rate=100.0,
    append_every=100,
    setups=3,
    overhead_triples=200,
)
SMOKE = Scale(
    rows_divisor=20,
    closed_queries={"isla_mem": 50, "baseline_mem": 50, "isla_mmap_skewed": 50},
    open_queries=100,
    open_rate=200.0,
    append_every=20,
    setups=1,
    overhead_triples=10,
)

#: queries re-executed with their original seed children after timing
REPLAY_QUERIES = 20
#: rows per serve_mixed append at full scale
APPEND_ROWS = 25_000
#: fixes serve_mixed's popularity ranking for every --seed
RANKING_SEED = 2019
#: The harness's own random streams use entropy ``[seed, purpose]``, so none
#: of them coincides with a per-query child of ``SeedSequence(seed)``.
DATA, MIX, WARM_UP, APPEND = 1, 2, 3, 4


@dataclass(frozen=True)
class Statement:
    """One distinct statement of a mix, with what its answer is checked against."""

    text: str
    table: str
    aggregate: str
    precision: float
    confidence: float
    method: str


def statement(table: str, aggregate: str, precision: float, confidence: float,
              method: str = "ISLA") -> Statement:
    text = (
        f"SELECT {aggregate.upper()}(value) FROM {table} "
        f"PRECISION {precision:g} CONFIDENCE {confidence:g}"
    )
    if method != "ISLA":
        text += f" METHOD {method}"
    return Statement(text, table, aggregate, precision, confidence, method)


@dataclass
class Data:
    """Generated inputs of one run (made before, and excluded from, set-up)."""

    #: ``(table name, values, block count)``
    tables: List[Tuple[str, np.ndarray, int]]
    statements: List[Statement]
    #: popularity of each statement (sums to 1)
    weights: np.ndarray
    #: rows per append (open loop only)
    append_rows: int = 0


@dataclass
class Session:
    """What set-up built: the engine, and for the open loop the service."""

    engine: AQPEngine
    service: object = None
    directory: Optional[Path] = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.engine.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "closed": one caller, next query after the previous answer;
    #: "open": one generator submitting on a fixed schedule
    loop: str
    generate: Callable[[int, Scale], Data]
    setup: Callable[[Data, Path, int], Session]


def stream(seed: int, purpose: int, *key: int) -> np.random.SeedSequence:
    """The harness's seed sequence for one purpose (data, mix, warm-up, append)."""
    return np.random.SeedSequence([seed, purpose], spawn_key=key)


def _rng(seed: int, table: int) -> np.random.Generator:
    return np.random.default_rng(stream(seed, DATA, table))


def _uniform(count: int) -> np.ndarray:
    return np.full(count, 1.0 / count)


# ------------------------------------------------------------------ generators
def _generate_isla_mem(seed: int, scale: Scale) -> Data:
    rows = 2_000_000 // scale.rows_divisor
    tables = [
        ("t0", _rng(seed, 0).normal(100.0, 20.0, rows), 64),
        ("t1", _rng(seed, 1).normal(50.0, 10.0, rows), 64),
    ]
    statements = [
        statement(table, aggregate, precision, confidence)
        for table, _, _ in tables
        for aggregate in ("avg", "sum")
        for precision in (0.25, 0.5, 1.0)
        for confidence in (0.9, 0.95)
    ]
    return Data(tables, statements, _uniform(len(statements)))


def _generate_baseline_mem(seed: int, scale: Scale) -> Data:
    rows = 4_000_000 // scale.rows_divisor
    tables = [("b0", _rng(seed, 0).normal(100.0, 20.0, rows), 8)]
    statements = [
        statement("b0", "avg", precision, 0.95, method)
        for method in ("US", "STS", "MV", "MVB", "BILEVEL", "BLOCK")
        for precision in (0.25, 0.5, 1.0)
    ]
    # EXACT at ~5% of the mix puts p99 inside the full scan
    weights = np.append(np.full(len(statements), 0.95 / len(statements)), 0.05)
    statements.append(statement("b0", "avg", 1.0, 0.95, "EXACT"))
    return Data(tables, statements, weights)


def _generate_isla_mmap_skewed(seed: int, scale: Scale) -> Data:
    rows = 2_000_000 // scale.rows_divisor
    data_seed = int(stream(seed, DATA, 1).generate_state(1)[0])
    lognormal = get_workload("lognormal", rows, seed=data_seed).generate().values
    # five equal blocks, each from its own normal: an even 5-way partition
    # of the concatenation reproduces exactly that block layout
    noniid = (
        NonIIDWorkload.paper_blocks(rows // 5, seed=data_seed)
        .generate_store("noniid")
        .full_column()
    )
    tables = [
        ("neg", _rng(seed, 0).normal(10.0, 20.0, rows), 32),
        ("lognormal", lognormal, 32),
        ("noniid", noniid, 5),
    ]
    statements = [
        statement(table, "avg", precision, 0.95)
        for table, _, _ in tables
        for precision in (0.5, 1.0, 2.0)
    ]
    return Data(tables, statements, _uniform(len(statements)))


def _generate_serve_mixed(seed: int, scale: Scale) -> Data:
    rows = 1_000_000 // scale.rows_divisor
    tables = [
        (f"s{index}", _rng(seed, index).normal(100.0 + 10.0 * index, 20.0, rows), 16)
        for index in range(3)
    ]
    statements = [
        statement(table, "avg", precision, confidence, method)
        for table, _, _ in tables
        for precision in (0.25, 0.5, 1.0, 2.0)
        for confidence in (0.9, 0.95)
        for method in ("ISLA", "US")
    ]
    # Zipf(1.1) popularity over one fixed ranking of the 48 statements: which
    # statements are hot is part of the workload, not of the seeded inputs,
    # because an expensive hot set changes the load far more than any seed
    ranks = np.random.default_rng(RANKING_SEED).permutation(len(statements)) + 1
    weights = ranks ** -1.1
    return Data(tables, statements, weights / weights.sum(),
                append_rows=APPEND_ROWS // scale.rows_divisor)


def append_values(seed: int, table_index: int, append: int, rows: int) -> np.ndarray:
    """Rows of the ``append``-th serve_mixed append (same law as the table)."""
    rng = np.random.default_rng(stream(seed, APPEND, append))
    return rng.normal(100.0 + 10.0 * table_index, 20.0, rows)


# ---------------------------------------------------------------------- set-up
def warm_up(engine: AQPEngine, statements: List[Statement], seed: int) -> None:
    """One execution per distinct statement, on seeds the timed phase never uses."""
    for item, child in zip(statements, stream(seed, WARM_UP).spawn(len(statements))):
        engine.execute_plan(engine.plan(item.text), seed=child)


def _setup_in_memory(data: Data, directory: Path, seed: int) -> Session:
    engine = AQPEngine(seed=seed)
    for name, values, blocks in data.tables:
        engine.register_array(name, values, block_count=blocks)
    warm_up(engine, data.statements, seed)
    return Session(engine)


def _save_and_open(data: Data, directory: Path, engine: AQPEngine) -> AQPEngine:
    """Save every table through one engine, open them memory-mapped in ``engine``."""
    writer = AQPEngine()
    try:
        for name, values, blocks in data.tables:
            writer.register_array(name, values, block_count=blocks)
            writer.save(name, directory / name)
    finally:
        writer.close()
    for name, _, _ in data.tables:
        engine.open(directory / name)
    return engine


def _setup_mmap(data: Data, directory: Path, seed: int) -> Session:
    engine = _save_and_open(data, directory, AQPEngine(seed=seed))
    session = Session(engine, directory=directory)
    warm_up(engine, data.statements, seed)
    return session


def _setup_serve(data: Data, directory: Path, seed: int) -> Session:
    engine = _save_and_open(data, directory, AQPEngine(seed=seed, parallelism=2))
    service = engine.serve(workers=2, max_queue=64, seed=seed)
    session = Session(engine, service=service, directory=directory)
    for outcome in service.execute_many([item.text for item in data.statements]):
        outcome.unwrap()
    return session


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("isla_mem", "closed", _generate_isla_mem, _setup_in_memory),
        Workload("baseline_mem", "closed", _generate_baseline_mem, _setup_in_memory),
        Workload("isla_mmap_skewed", "closed", _generate_isla_mmap_skewed, _setup_mmap),
        Workload("serve_mixed", "open", _generate_serve_mixed, _setup_serve),
    )
}
