"""Smoke test of the AQP benchmark: every workload runs, checks pass, metrics are emitted.

A renamed layer function, a metric dropped from the harness or a broken
answer check fails here, long before anyone compares performance numbers.
The workloads run in this process (``run.py`` starts one process per
workload), which keeps the test to seconds.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [item["name"] for item in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location("aqp_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path.remove(str(HERE))


@pytest.fixture
def run(bench, capsys, monkeypatch, tmp_path):
    """``run(*args)`` -> (exit code, last stdout line, full run record)."""
    # run.py pins these for the measurement; restore them for later tests
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    for variable in ("REPRO_PARALLELISM", "REPRO_FAULTS"):
        monkeypatch.delenv(variable, raising=False)

    def invoke(*args):
        out = tmp_path / "run.json"
        out.unlink(missing_ok=True)
        code = bench.main(["--smoke", "--out", str(out), *args])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        (record,) = json.loads(out.read_text())["runs"]
        return code, summary, record

    return invoke


def _assert_emitted(summary, names):
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == set(names)
    for name in names:
        assert summary["metrics"][name]["unit"] == UNITS[name]
        assert math.isfinite(summary["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks_and_emits_every_metric(run, workload):
    code, summary, record = run("--workload", workload)
    assert code == 0 and summary["correct"], record["workloads"][workload]["violations"]
    assert summary["failed"] == 0 and summary["attempted"] >= 50
    _assert_emitted(summary, [metric["name"] for metric in SPEC["end_to_end"]])
    assert all(value["value"] > 0 for value in summary["metrics"].values())


def test_trace_pass_emits_every_layer_metric(run):
    code, summary, record = run("--workload", "serve_mixed", "--trace")
    assert code == 0 and summary["correct"]
    _assert_emitted(summary, [metric["name"] for metric in SPEC["per_layer"]])
    metrics = record["workloads"]["serve_mixed"]["metrics"]
    for layer in ("query.parse", "query.execute", "core.isla", "sampling.aggregate",
                  "storage.save", "storage.open", "storage.wal_append", "parallel.scan",
                  "serve.cache_lookup", "serve.cache_put"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_every_trace_target_resolves(bench):
    from layers import TARGETS, LayerTracer, resolve

    for functions in TARGETS.values():
        for module_name, path in functions:
            resolve(module_name, path)
    tracer = LayerTracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(LookupError):
        resolve("repro.query.engine", "no_such_layer_function")
