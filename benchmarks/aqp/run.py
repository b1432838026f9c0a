"""Outside-in benchmark of the AQP engine: four workloads, checked answers.

Run from the repository root::

    python3 benchmarks/aqp/run.py                        # all four workloads
    python3 benchmarks/aqp/run.py --workload isla_mem --seed 3 --seconds 20
    python3 benchmarks/aqp/run.py --workload serve_mixed --trace 1
    python3 benchmarks/aqp/run.py --smoke                # seconds-long run
    python3 benchmarks/aqp/run.py --seed 0 --out benchmarks/aqp/results/prN.json

Each workload runs in its own process.  The program is driven only through
``AQPEngine`` and ``QueryService`` public calls, every answer is checked
against exact truth computed by the harness, and the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer
metrics with ``--trace 1``.  The exit code is non-zero when a check fails.
``--out`` appends the full run record (every metric, machine info) to a
JSON file's ``runs`` list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({"fail_ratio": "ratio", "load.p99_tail_queries": "count"})
SPEC_WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _require_source() -> Path:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {source}; run from a full checkout")
    return source


def _import_repro() -> None:
    """Import the package from this checkout's ``src``, never an installed copy."""
    source = _require_source()
    # measure the default configuration, whatever the caller's environment says
    os.environ["REPRO_TELEMETRY"] = "0"
    for variable in ("REPRO_PARALLELISM", "REPRO_FAULTS"):
        os.environ.pop(variable, None)
    for folder in (str(source), str(HERE)):
        if folder not in sys.path:
            sys.path.insert(0, folder)
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {source}")


def _median(values):
    return float(np.median(values)) if values else 0.0


def _percentile(values, q):
    # an order statistic, never an interpolation: failed queries are +inf, and
    # at 1000 queries p99 is the 990th value, so 10 lie beyond it
    return float(np.percentile(values, q, method="lower")) if values else 0.0


def _scratch() -> Path:
    """Where runs keep their files: inside the checkout, ignored by git."""
    scratch = HERE / ".scratch"
    scratch.mkdir(exist_ok=True)
    return scratch


def run_workload(name: str, seed: int, seconds, trace: bool, smoke: bool) -> dict:
    """Set up, time and check one workload in this process; returns its record."""
    from layers import LayerTracer
    from loops import Tally, Truth, check_replay, closed_loop, open_loop, overhead_comparison
    from workloads import FULL, SMOKE, WORKLOADS

    workload = WORKLOADS[name]
    scale = SMOKE if smoke else FULL
    data = workload.generate(seed, scale)
    truth = {table: Truth.of(values) for table, values, _ in data.tables}
    tracer = LayerTracer()
    # a traced run splits its time: 60% timed queries, 40% overhead comparison
    share = 0.6 if trace else 1.0
    timed = seconds * share if seconds is not None else None

    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=_scratch()))
    session = None
    try:
        if trace:
            tracer.install()
        setup_times = []
        for index in range(1 if trace else scale.setups):
            if session is not None:
                session.close()
            begin = time.perf_counter()
            session = workload.setup(data, workdir / f"setup{index}", seed)
            setup_times.append(time.perf_counter() - begin)

        tally = Tally()
        serve_before = session.service.stats() if session.service is not None else None
        if workload.loop == "closed":
            replay = closed_loop(session, data, seed, tally, truth,
                                 count=None if timed else scale.closed_queries[name],
                                 seconds=timed)
        else:
            rate = scale.open_rate
            count = round(rate * timed) if timed else scale.open_queries
            open_loop(session, data, seed, tally, truth, count=count, rate=rate,
                      append_every=scale.append_every)
            replay = []
        serve_after = session.service.stats() if session.service is not None else None
        tracer.uninstall()
        check_replay(session, replay, tally)

        record = {
            "correct": not tally.violations,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "violations": tally.violations[:20],
            "errors": tally.errors,
        }
        metrics = _end_to_end(tally, setup_times)
        if trace:
            overhead, telemetry = overhead_comparison(
                session, data, seed, LayerTracer(), triples=scale.overhead_triples,
                seconds=seconds * (1.0 - share) if seconds is not None else None)
            metrics.update(_per_layer(tally, tracer.totals(), serve_before, serve_after,
                                      overhead, telemetry))
        record["metrics"] = metrics
        return record
    finally:
        tracer.uninstall()
        if session is not None:
            session.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(tally, setup_times) -> dict:
    latencies = tally.latencies
    completed = tally.attempted - tally.failed
    p99 = _percentile(latencies, 99)
    return {
        "setup_s": _median(setup_times),
        "query_p50_ms": _percentile(latencies, 50) * 1e3,
        "query_p99_ms": p99 * 1e3,
        "throughput_qps": completed / tally.wall_seconds if tally.wall_seconds else 0.0,
        "error_ratio": tally.error_ratio_sum / tally.sampled if tally.sampled else 0.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # reported beside the bounded metrics, not bounded themselves
        "ci_miss_ratio": tally.misses / tally.sampled if tally.sampled else 0.0,
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "load.timed_queries": tally.attempted,
        "load.p99_tail_queries": sum(1 for latency in latencies if latency > p99),
    }


def _per_layer(tally, totals, serve_before, serve_after, overhead, telemetry) -> dict:
    metrics = {}
    for layer, (calls, busy, own) in totals.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.busy_s"] = busy
        metrics[f"{layer}.self_s"] = own

    def served(key, *path):
        if serve_after is None:
            return 0
        after, before = serve_after[key], serve_before[key]
        for step in path:
            after, before = after[step], before[step]
        return after - before

    reads = tally.attempted or 1
    blocks = tally.isla_blocks or 1
    metrics.update({
        "core.iterations_per_block": tally.isla_iterations / blocks,
        "core.fallback_ratio": tally.isla_fallbacks / blocks,
        "core.rows_sampled_per_query": tally.rows_sampled / (tally.sampled or 1),
        "serve.cache_hit_ratio": tally.cache_hits / reads,
        "serve.coalesced_ratio": served("coalesced") / reads,
        "serve.queue_wait_p50_ms": _percentile(tally.queue_waits, 50) * 1e3,
        "serve.queue_wait_p99_ms": _percentile(tally.queue_waits, 99) * 1e3,
        "serve.retries": served("retries"),
        "serve.rejected.queue_full": served("rejected", "queue_full"),
        "serve.rejected.deadline": served("rejected", "deadline"),
        "serve.rejected.circuit_open": served("rejected", "circuit_open"),
        "append_p50_ms": _percentile(tally.append_latencies, 50) * 1e3,
        "append_p90_ms": _percentile(tally.append_latencies, 90) * 1e3,
        "load.generator_late_max_ms": tally.generator_late_max * 1e3,
        "trace.overhead_ratio": overhead,
        "obs.telemetry_on_p50_ratio": telemetry,
    })
    return metrics


# ---------------------------------------------------------------- reporting
def contract_line(record: dict, trace: bool) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names for this pass."""
    names = [metric["name"] for metric in SPEC["per_layer" if trace else "end_to_end"]]
    missing = [name for name in names if name not in record["metrics"]]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": UNITS[name]}
                    for name in names},
    }


def print_table(name: str, record: dict) -> None:
    print(f"== {name}: attempted {record['attempted']}, failed {record['failed']}, "
          f"checks {'pass' if record['correct'] else 'FAIL'}")
    for metric, value in record["metrics"].items():
        print(f"   {metric:<34} {value:>16.6g} {UNITS.get(metric, '')}")
    for violation in record["violations"]:
        print(f"   check failed: {violation}", file=sys.stderr)
    for error, count in record["errors"].items():
        print(f"   failed queries: {count} x {error}", file=sys.stderr)


def machine_info() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def append_run(path: Path, run: dict) -> None:
    """Add one run record to the ``runs`` list of a results file."""
    document = json.loads(path.read_text()) if path.exists() else {"runs": []}
    document["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def run_children(args) -> dict:
    """Run every workload in its own process; returns ``name -> record``."""
    records = {}
    with tempfile.TemporaryDirectory(dir=_scratch()) as folder:
        for name in SPEC_WORKLOADS:
            out = Path(folder) / f"{name}.json"
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(out)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            completed = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
            if not out.exists():
                sys.exit(f"error: workload {name} exited {completed.returncode} without a result")
            records[name] = json.loads(out.read_text())["runs"][0]["workloads"][name]
    return records


def _stop(signum, frame):
    # SystemExit unwinds like an exception: a running child is killed and
    # waited for, the session is closed and the scratch files removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SPEC_WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-bounded run (default: a fixed query count per workload)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer pass: time each layer through runtime wrappers")
    parser.add_argument("--smoke", action="store_true", help="rows/20, ~50 queries")
    parser.add_argument("--out", type=Path, help="append the run record to this JSON file")
    args = parser.parse_args(argv)
    started_at = time.time()
    if args.workload is not None:
        _import_repro()
        records = {args.workload: run_workload(args.workload, args.seed, args.seconds,
                                               bool(args.trace), args.smoke)}
    else:
        _require_source()
        records = run_children(args)
    for name, record in records.items():
        print_table(name, record)
    if args.out is not None:
        append_run(args.out, {
            "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
            "smoke": args.smoke, "started_at": started_at, "machine": machine_info(),
            "workloads": records,
        })
    lines = {name: contract_line(record, bool(args.trace)) for name, record in records.items()}
    if args.workload is not None:
        summary = lines[args.workload]
    else:
        summary = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": value for name, line in lines.items()
                        for metric, value in line["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
