"""Command-line entry point: ``python -m repro.experiments`` / ``isla-experiments``.

Examples
--------
List the available experiments::

    python -m repro.experiments --list

Run one experiment (paper-style table printed to stdout)::

    python -m repro.experiments table3

Run everything at a reduced scale::

    python -m repro.experiments all --data-size 100000

Emit machine-readable perf trajectories (enables telemetry for the run)::

    python -m repro.experiments table3 --metrics-out metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro import obs
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = ["main", "build_parser"]

#: experiments whose runners accept a ``data_size`` keyword
_SIZE_AWARE = {
    "fig6a", "fig6b", "fig6c", "fig6d",
    "table3", "table4", "table5", "table6", "table7",
    "ablation-alpha", "ablation-q",
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="isla-experiments",
        description="Reproduce the tables and figures of the ISLA paper (ICDE 2019).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment identifiers to run (or 'all'); use --list to see them",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--data-size", type=int, default=None,
        help="override the per-data-set row count for the size-aware experiments",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base random seed (default 0)"
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="enable telemetry and write the metrics registry snapshot "
             "(counters + latency histograms) as JSON to PATH",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable telemetry for the run even without --metrics-out",
    )
    storage = parser.add_argument_group(
        "durable storage", "options for the 'save'/'load' entry points "
        "(crash-safe on-disk block stores)"
    )
    storage.add_argument(
        "--data-dir", type=str, default=None, metavar="DIR",
        help="directory of durable block stores: 'save' snapshots synthetic "
             "tables into it, 'load' opens and summarises it (mmap scans)",
    )
    storage.add_argument(
        "--tables", type=int, default=3,
        help="synthetic tables written by the 'save' entry point (default 3)",
    )
    storage.add_argument(
        "--blocks", type=int, default=16, metavar="B",
        help="blocks per table written by the 'save' entry point (default 16)",
    )
    return parser


def _require_data_dir(args, entry: str) -> str:
    if not args.data_dir:
        raise SystemExit(f"the '{entry}' entry point requires --data-dir DIR")
    return args.data_dir


def _run_save(args) -> str:
    """The ``save`` entry point: snapshot synthetic tables to durable storage."""
    from pathlib import Path

    import numpy as np

    from repro.query.engine import AQPEngine

    data_dir = Path(_require_data_dir(args, "save"))
    data_size = args.data_size if args.data_size is not None else 200_000
    rng = np.random.default_rng(args.seed)
    lines = [f"durable save → {data_dir}"]
    with AQPEngine(seed=args.seed) as engine:
        for index in range(args.tables):
            name = f"serve_t{index}"
            values = rng.normal(100.0 + 10.0 * index, 20.0, data_size)
            engine.register_array(name, values, block_count=args.blocks)
            engine.save(name, data_dir / name)
            lines.append(
                f"  {name}: {data_size} rows in {args.blocks} blocks "
                f"(version {engine.catalog.version(name)})"
            )
    return "\n".join(lines)


def _run_load(args) -> str:
    """The ``load`` entry point: open a data directory and summarise it."""
    from repro.query.engine import AQPEngine
    from repro.storage.persist import discover_store_directories

    data_dir = _require_data_dir(args, "load")
    lines = [f"durable load ← {data_dir}"]
    with AQPEngine(seed=args.seed) as engine:
        for directory in discover_store_directories(data_dir):
            name = engine.open(directory)
            durable = engine._durable[name]
            store = durable.store
            recovery = (
                f", recovered {durable.recovered_appends} logged append(s)"
                if durable.recovered_appends
                else ""
            )
            torn = (
                f", discarded {durable.recovered_torn_bytes} torn WAL byte(s)"
                if durable.recovered_torn_bytes
                else ""
            )
            lines.append(
                f"  {name}: {store.block_count} blocks, {store.total_rows} rows, "
                f"columns {list(store.column_names)}, "
                f"version {engine.catalog.version(name)} (mmap){recovery}{torn}"
            )
    return "\n".join(lines)


#: the non-experiment entry points, each rendering its own report
_ENTRY_POINTS = {"save": _run_save, "load": _run_load}


def _run_one(identifier: str, data_size: Optional[int], seed: int) -> tuple:
    runner = get_experiment(identifier)
    kwargs = {"seed": seed}
    if data_size is not None and identifier in _SIZE_AWARE:
        kwargs["data_size"] = data_size
    with obs.stopwatch(f"experiment.{identifier}", seed=seed) as watch:
        result = runner(**kwargs)
    elapsed = watch.elapsed_seconds
    return f"{result.to_text()}\n(ran in {elapsed:.2f}s)\n", elapsed


def _write_metrics(path: str, per_experiment: Dict[str, float]) -> None:
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "experiments": per_experiment,
        "metrics": obs.get_telemetry().registry.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("Available experiments:")
        for identifier, description in list_experiments().items():
            print(f"  {identifier:16s} {description}")
        print(f"  {'save':16s} snapshot synthetic tables into --data-dir "
              "(atomic, crash-safe durable stores)")
        print(f"  {'load':16s} open the durable stores under --data-dir and "
              "summarise them (replays the WAL)")
        return 0

    if args.metrics_out or args.telemetry:
        obs.configure(enabled=True)

    identifiers = list(args.experiments)
    if len(identifiers) == 1 and identifiers[0].lower() == "all":
        identifiers = list(EXPERIMENTS)

    per_experiment: Dict[str, float] = {}
    for identifier in identifiers:
        entry = identifier.lower()
        if entry in _ENTRY_POINTS:
            runner = _ENTRY_POINTS[entry]
            with obs.stopwatch(f"experiment.{entry}", seed=args.seed) as watch:
                text = runner(args)
            per_experiment[identifier] = watch.elapsed_seconds
            print(text + "\n")
            continue
        text, elapsed = _run_one(identifier, args.data_size, args.seed)
        per_experiment[identifier] = elapsed
        print(text)

    if args.metrics_out:
        _write_metrics(args.metrics_out, per_experiment)
        print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
