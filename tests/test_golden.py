"""Golden-answer corpus: every method's seeded answers, compared bit for bit.

``tests/golden/answers.json`` records, for a fixed grid of queries, the float
hex of each answer and of its interval radius, the sample size, the degraded
tags and ISLA's per-block round counts.  The grid:

* methods: ISLA AVG and SUM, the eight sampling baselines and EXACT;
* tables: small normal, lognormal and non-IID tables from
  :mod:`repro.workloads`, plus a normal table whose values dip below zero,
  so ISLA's footnote-1 translation applies;
* seeds 1, 2 and 3, at parallelism ``None`` (inline) and 4;
* healthy, and under one fixed :func:`~repro.faults.fault_scope` plan that
  fails partition 2 of every table.

A change meant to keep behaviour must pass this test unchanged.  A change
meant to move answers regenerates the file and says in CHANGES.md how many
entries moved and by how much::

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.query.engine import AQPEngine
from repro.workloads import LogNormalWorkload, NonIIDWorkload, NormalWorkload

GOLDEN = Path(__file__).resolve().parent / "golden" / "answers.json"

#: (table name, precision) -> a zero-argument store factory
TABLES = {
    ("normal", 0.5): lambda: NormalWorkload(12_000, mean=100.0, std=20.0, seed=101)
    .generate_store("normal", block_count=8),
    ("lognormal", 2.0): lambda: LogNormalWorkload(12_000, mu=4.0, sigma=0.8, seed=102)
    .generate_store("lognormal", block_count=8),
    ("noniid", 2.0): lambda: NonIIDWorkload.paper_blocks(rows_per_block=2_400, seed=103)
    .generate_store("noniid"),
    ("negative", 0.5): lambda: NormalWorkload(12_000, mean=10.0, std=20.0, seed=104)
    .generate_store("negative", block_count=8),
}

#: (method, aggregate) pairs of the grid
QUERIES = (
    ("ISLA", "avg"),
    ("ISLA", "sum"),
    *((method, "avg") for method in ("US", "STS", "MV", "MVB", "SLEV", "BILEVEL", "BLOCK", "EBS")),
    ("EXACT", "avg"),
)
SEEDS = (1, 2, 3)
PARALLELISM = (None, 4)
FAULT_PLAN = FaultPlan(seed=5, specs=(FaultSpec(site="scan.partition", keys=(2,)),))


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


def _entry(result) -> Dict[str, Any]:
    raw = result.raw
    interval = getattr(raw, "interval", None)
    block_results = getattr(raw, "block_results", None)
    return {
        "value": _hex(result.value),
        "radius": _hex(interval.radius) if interval is not None else None,
        "sample_size": int(result.sample_size),
        "degraded": bool(result.degraded),
        "failed_partitions": list(result.failed_partitions),
        "sample_fraction": _hex(result.sample_fraction),
        "rounds": (
            [block.iterations for block in block_results]
            if block_results is not None else None
        ),
    }


def compute_corpus() -> Dict[str, Dict[str, Any]]:
    """Run the whole grid and return ``{entry key: entry}``."""
    corpus: Dict[str, Dict[str, Any]] = {}
    for (name, precision), make_store in TABLES.items():
        store = make_store()
        for seed in SEEDS:
            for parallelism in PARALLELISM:
                engine = AQPEngine(seed=seed, parallelism=parallelism)
                engine.register_store(store)
                for health in ("healthy", "fault"):
                    for method, aggregate in QUERIES:
                        statement = (
                            f"SELECT {aggregate.upper()}(value) FROM {name} "
                            f"PRECISION {precision} CONFIDENCE 0.95 METHOD {method}"
                        )
                        if health == "fault":
                            with fault_scope(FAULT_PLAN):
                                result = engine.execute(statement)
                        else:
                            result = engine.execute(statement)
                        key = f"{name}|{method}|{aggregate}|seed={seed}|par={parallelism}|{health}"
                        corpus[key] = _entry(result)
    return corpus


def test_answers_match_the_golden_corpus():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_corpus()
    assert sorted(actual) == sorted(expected), "the grid changed; regenerate the corpus"
    moved = [key for key in expected if actual[key] != expected[key]]
    assert not moved, (
        f"{len(moved)} of {len(expected)} golden answers moved, e.g. "
        + "; ".join(f"{key}: {expected[key]} -> {actual[key]}" for key in moved[:3])
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--regen"]:
        print("usage: PYTHONPATH=src python tests/test_golden.py --regen")
        return 2
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_corpus(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
