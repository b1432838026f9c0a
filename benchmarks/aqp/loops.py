"""Load generation and answer checking for the AQP benchmark.

Closed loop: one caller times ``engine.plan`` + ``engine.execute_plan`` per
query, handing each query its own ``SeedSequence`` child in query order
(the path ``QueryService`` uses), so answers differ per query and repeat
bit for bit at one seed.  ``AQPEngine.execute`` would reuse one executor
seed and return the same answer for a repeated statement.

Open loop: one generator thread submits to a ``QueryService`` on a fixed
schedule and times every query from its due time, so a stall shows in the
latency of everything queued behind it.

Every answer is checked against exact truth computed by the harness, and
the totals land in a :class:`Tally`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from workloads import MIX, REPLAY_QUERIES, Data, Session, Statement, append_values, stream

clock = time.perf_counter

#: EXACT answers must match the harness's truth to this relative tolerance
EXACT_TOLERANCE = 1e-9


class Truth(NamedTuple):
    """Exact facts about one table version, computed by the harness."""

    mean: float
    rows: int
    low: float
    high: float

    @classmethod
    def of(cls, values: np.ndarray) -> "Truth":
        return cls(float(np.mean(values)), int(values.size),
                   float(values.min()), float(values.max()))

    def extend(self, values: np.ndarray) -> "Truth":
        rows = self.rows + values.size
        return Truth((self.mean * self.rows + float(values.sum())) / rows, rows,
                     min(self.low, float(values.min())), max(self.high, float(values.max())))


@dataclass
class Tally:
    """Everything measured about the timed queries of one run."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    #: executed (non-cache) sampling answers and their accuracy
    sampled: int = 0
    misses: int = 0
    error_ratio_sum: float = 0.0
    rows_sampled: int = 0
    #: ISLA per-block diagnostics of executed answers
    isla_blocks: int = 0
    isla_iterations: int = 0
    isla_fallbacks: int = 0
    cache_hits: int = 0
    queue_waits: List[float] = field(default_factory=list)
    append_latencies: List[float] = field(default_factory=list)
    generator_late_max: float = 0.0
    wall_seconds: float = 0.0
    violations: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.latencies.append(math.inf)
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def answer(self, item: Statement, result, truth: Truth) -> None:
        """Check one executed answer against the exact truth of its table."""
        # SUM is checked as value/rows against the mean: the engine scales the
        # AVG half-width by the row count, so PRECISION bounds the mean error
        value = result.value / truth.rows if item.aggregate == "sum" else result.value
        if item.method == "EXACT":
            if not abs(value - truth.mean) <= EXACT_TOLERANCE * max(1.0, abs(truth.mean)):
                self.violations.append(f"EXACT answered {value!r}, truth {truth.mean!r}: "
                                       f"{item.text}")
            return
        # A mean outside the data's range is garbage, not a statistical miss.
        # Misses, however large, are what the accuracy metrics measure.
        if not truth.low <= value <= truth.high:
            self.violations.append(f"answer {value!r} outside the data range "
                                   f"[{truth.low}, {truth.high}]: {item.text}")
            return
        ratio = abs(value - truth.mean) / item.precision
        self.sampled += 1
        self.misses += ratio > 1.0
        self.error_ratio_sum += ratio
        self.rows_sampled += result.sample_size
        blocks = getattr(result.raw, "block_results", None)
        if blocks:
            self.isla_blocks += len(blocks)
            self.isla_iterations += sum(block.iterations for block in blocks)
            self.isla_fallbacks += sum(1 for block in blocks if block.used_fallback)

    def cached(self, item: Statement, result) -> None:
        """The cache contract: a hit is at least as tight as what was asked."""
        self.cache_hits += 1
        details = result.details
        if (details.get("achieved_precision", math.inf) > item.precision
                or details.get("achieved_confidence", 0.0) < item.confidence):
            self.violations.append(f"cache served a looser bound than asked: {item.text}")


def query_stream(data: Data, seed: int) -> Iterator[Tuple[Statement, np.random.SeedSequence]]:
    """The seeded query sequence: statement draws plus one seed child per query."""
    rng = np.random.default_rng(stream(seed, MIX))
    seeds = np.random.SeedSequence(seed)
    while True:
        for index in rng.choice(len(data.statements), size=4096, p=data.weights):
            yield data.statements[index], seeds.spawn(1)[0]


def closed_loop(session: Session, data: Data, seed: int, tally: Tally,
                truth: Dict[str, Truth], *, count: Optional[int],
                seconds: Optional[float]) -> List[Tuple[Statement, object, float]]:
    """Run queries back to back; returns the first ones for the replay check."""
    engine = session.engine
    replay: List[Tuple[Statement, object, float]] = []
    start = clock()
    deadline = start + seconds if seconds is not None else math.inf
    for item, child in query_stream(data, seed):
        if (count is not None and tally.attempted >= count) or clock() >= deadline:
            break
        tally.attempted += 1
        begin = clock()
        try:
            result = engine.execute_plan(engine.plan(item.text), seed=child)
        except Exception as exc:  # noqa: BLE001 - counted as a failed query
            tally.fail(type(exc).__name__)
            continue
        tally.latencies.append(clock() - begin)
        tally.answer(item, result, truth[item.table])
        if len(replay) < REPLAY_QUERIES:
            replay.append((item, child, result.value))
    tally.wall_seconds = clock() - start
    return replay


def check_replay(session: Session, replay, tally: Tally) -> None:
    """Re-execute with the same seed children: answers must be bit-identical."""
    engine = session.engine
    for item, child, value in replay:
        again = engine.execute_plan(engine.plan(item.text), seed=child).value
        if again != value:
            tally.violations.append(f"replay gave {again!r}, first run {value!r}: {item.text}")


def open_loop(session: Session, data: Data, seed: int, tally: Tally,
              truth: Dict[str, Truth], *, count: int, rate: float, append_every: int) -> None:
    """Submit ``count`` queries at ``rate`` q/s, appending after every ``append_every``."""
    service, engine = session.service, session.engine
    tables = [name for name, _, _ in data.tables]
    inflight: Dict[str, list] = {name: [] for name in tables}
    submitted = []
    start = clock() + 0.01
    for index, (item, _) in enumerate(query_stream(data, seed)):
        if index >= count:
            break
        due = start + index / rate
        pause = due - clock()
        if pause > 0:
            time.sleep(pause)
        sent = clock()
        ticket = service.submit(item.text)
        tally.generator_late_max = max(tally.generator_late_max, sent - due)
        submitted.append((item, ticket, sent - due, truth[item.table]))
        inflight[item.table].append(ticket)
        if (index + 1) % append_every == 0:
            append = (index + 1) // append_every - 1
            table = tables[append % len(tables)]
            # The partition scan reads the block list more than once, so an
            # append landing mid-scan can fail the query.  Appends therefore
            # wait for the table's in-flight reads, like a table write lock.
            for pending in inflight[table]:
                pending.outcome()
            inflight[table].clear()
            values = append_values(seed, tables.index(table), append, data.append_rows)
            begin = clock()
            engine.append_array(table, values)
            tally.append_latencies.append(clock() - begin)
            truth[table] = truth[table].extend(values)
    outcomes = [(item, ticket.outcome(), late, table_truth)
                for item, ticket, late, table_truth in submitted]
    tally.wall_seconds = clock() - start
    for item, outcome, late, table_truth in outcomes:
        tally.attempted += 1
        if not outcome.ok:
            reason = outcome.rejection.reason if outcome.rejection else type(outcome.error).__name__
            tally.fail(reason)
            continue
        tally.latencies.append(late + outcome.total_seconds)
        tally.queue_waits.append(outcome.queue_seconds)
        if outcome.cache_hit:
            tally.cached(item, outcome.result)
        else:
            tally.answer(item, outcome.result, table_truth)


def overhead_comparison(session: Session, data: Data, seed: int, tracer,
                        *, triples: int, seconds: Optional[float]) -> Tuple[float, float]:
    """Same queries, same seeds: plain vs traced vs telemetry-on.

    Returns the medians over queries of ``traced / plain`` and
    ``telemetry-on / plain`` time.  Each query runs all three variants back to
    back, in rotating order, so drift in machine speed hits them alike.
    """
    engine = session.engine
    telemetry = obs.Telemetry(enabled=True)
    times: Dict[str, List[float]] = {"plain": [], "traced": [], "telemetry": []}
    order = list(times)
    deadline = clock() + seconds if seconds is not None else math.inf
    for index, (item, child) in enumerate(query_stream(data, seed)):
        if index >= triples or clock() >= deadline:
            break
        for variant in order[index % 3:] + order[:index % 3]:
            if variant == "traced":
                tracer.install()
            try:
                begin = clock()
                if variant == "telemetry":
                    with telemetry.activate():
                        engine.execute_plan(engine.plan(item.text), seed=child)
                else:
                    engine.execute_plan(engine.plan(item.text), seed=child)
                times[variant].append(clock() - begin)
            finally:
                tracer.uninstall()
    plain = np.array(times["plain"])
    return (float(np.median(np.array(times["traced"]) / plain)),
            float(np.median(np.array(times["telemetry"]) / plain)))
