"""Benchmark the partition scan sharded across the pool against the inline scan.

Measures wall-clock of :class:`~repro.core.isla.ISLAAggregator` at
parallelism 1 (every partition task inline on the caller's thread, the
default) versus parallelism 2 and 4 on one multi-block table (best-of-N to
damp scheduler noise), and checks the seed-determinism contract: the same
seed must produce bit-identical estimates and CI bounds at parallelism 1,
2 and 4.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_scan.py
    PYTHONPATH=src python benchmarks/bench_parallel_scan.py --smoke

``--smoke`` shrinks the table so CI can assert the two acceptance
properties in seconds: seeded results bit-identical across parallelism
1/2/4 (always), and a sharded scan beating the inline one (enforced
whenever the machine has at least two usable cores — on a single core the
win is physically impossible and the speed check reports but does not
fail).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.parallel.bench import format_report, run_benchmark  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run with pass/fail assertions (CI)")
    parser.add_argument("--data-size", type=int, default=None,
                        help="rows in the bench table (default 400000, smoke 120000)")
    parser.add_argument("--blocks", type=int, default=16,
                        help="blocks the table is partitioned into (default 16)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions, best-of (default 3, smoke 2)")
    args = parser.parse_args(argv)

    rows = args.data_size if args.data_size is not None else (
        120_000 if args.smoke else 400_000
    )
    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 3)

    report = run_benchmark(
        rows=rows, blocks=args.blocks, seed=args.seed, repeats=repeats
    )
    print(format_report(report))

    if args.smoke and not report.passed():
        print("SMOKE FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
