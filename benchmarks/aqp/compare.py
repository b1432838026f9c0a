"""Compare benchmark runs of a parent commit and a change, metric by metric.

    python3 benchmarks/aqp/compare.py --parent p.json --change c.json

Each file is a results file written by ``run.py --out`` (a ``runs`` list);
the untraced runs of all parent files and of all change files are taken in
order and paired by position.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` it prints one row with a verdict:

* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent median);
* ``unresolved``: the parent's own interquartile spread exceeds the bound,
  so a regression that size could not be seen -- unless every change run
  beats every parent run;
* ``gain``: at least 10 pairs run in alternating order, the change wins at
  least 9 in 10 of them (ties count for neither), and the medians differ by
  more than the parent's interquartile spread;
* ``no change`` otherwise.

A workload where the change fails a larger share of its queries, or fails
an answer check, is reported as rejected.  The exit code is 1 when any row
is a regression or a rejection.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(paths):
    runs = []
    for path in paths:
        runs.extend(run for run in json.loads(Path(path).read_text())["runs"]
                    if not run["trace"])
    return runs


def spread(values):
    """Interquartile distance (``statistics.quantiles``; 0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def alternating(parent, change) -> bool:
    """True when the side that started first flips from each pair to the next."""
    if any("started_at" not in run for run in parent + change):
        return False
    firsts = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(metric, parent, change, pairs_alternate) -> tuple:
    """``(verdict, wins)`` for one metric's parent and change values."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) if lower else (p_med - c_med)
    better_than = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(parent, change))
    wins = sum(better_than(c, p) for p, c in pairs)
    allowed = metric["bound"] * abs(p_med)
    all_better = all(better_than(c, p) for c in change for p in parent)
    if spread(parent) > allowed and not all_better:
        return "unresolved", wins
    if worse > allowed:
        return "regression", wins
    if (len(pairs) >= MIN_PAIRS and pairs_alternate and wins >= MIN_WIN_SHARE * len(pairs)
            and -worse > spread(parent)):
        return "gain", wins
    return "no change", wins


def compare(parent_runs, change_runs) -> int:
    settings = {(run["seconds"], run["smoke"]) for run in parent_runs + change_runs}
    if len(settings) != 1:
        sys.exit(f"error: runs differ in --seconds/--smoke: {sorted(settings, key=str)}")
    pairs_alternate = alternating(parent_runs, change_runs)
    print(f"{len(parent_runs)} parent runs, {len(change_runs)} change runs, "
          f"pairs {'alternate' if pairs_alternate else 'do not alternate (no gain can be claimed)'}")
    print(f"{'workload':<18} {'metric':<16} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    bad = 0
    for workload in (item["name"] for item in SPEC["workloads"]):
        parent = [run["workloads"][workload] for run in parent_runs if workload in run["workloads"]]
        change = [run["workloads"][workload] for run in change_runs if workload in run["workloads"]]
        if not parent or not change:
            continue
        for metric in SPEC["end_to_end"]:
            p_values = [record["metrics"][metric["name"]] for record in parent]
            c_values = [record["metrics"][metric["name"]] for record in change]
            result, wins = verdict(metric, p_values, c_values, pairs_alternate)
            bad += result == "regression"
            p_med, c_med = statistics.median(p_values), statistics.median(c_values)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(f"{workload:<18} {metric['name']:<16} {p_med:>12.5g} {c_med:>12.5g} "
                  f"{delta:>+8.1%} {spread(p_values) / abs(p_med) if p_med else 0.0:>7.1%} "
                  f"{metric['bound']:>6.0%} {wins:>3}/{min(len(p_values), len(c_values)):<2}  "
                  f"{result}")
        failed_share = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                        for side in (parent, change)]
        if failed_share[1] > failed_share[0]:
            bad += 1
            print(f"{workload:<18} rejected: failed share {failed_share[1]:.4%} "
                  f"> parent {failed_share[0]:.4%}")
        if not all(record["correct"] for record in change):
            bad += 1
            print(f"{workload:<18} rejected: answer checks failed in a change run")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent results files")
    parser.add_argument("--change", nargs="+", required=True, help="change results files")
    args = parser.parse_args(argv)
    return compare(load_runs(args.parent), load_runs(args.change))


if __name__ == "__main__":
    sys.exit(main())
