"""Tests for the observability layer (repro.obs) and its wiring."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.config import ISLAConfig
from repro.core.isla import ISLAAggregator
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import (
    NULL_SPAN,
    InMemorySpanExporter,
    JsonlSpanExporter,
    Tracer,
    summarize_trace,
)
from repro.query.engine import AQPEngine
from repro.storage.blockstore import BlockStore


@pytest.fixture
def store(normal_values):
    return BlockStore.from_array("readings", normal_values, block_count=10)


@pytest.fixture
def engine(normal_values):
    engine = AQPEngine(ISLAConfig(telemetry=True), seed=5)
    engine.register_array("readings", normal_values, block_count=10)
    return engine


# --------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_semantics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(-4.0)
        assert gauge.value == 6.0

    def test_histogram_statistics(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(5050.0)
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.percentile(0.50) == pytest.approx(50.5, abs=1.0)
        assert histogram.percentile(0.95) == pytest.approx(95.05, abs=1.0)
        assert histogram.percentile(0.99) == pytest.approx(99.01, abs=1.0)
        snapshot = histogram.snapshot()
        assert snapshot["min"] == 1.0 and snapshot["max"] == 100.0
        assert snapshot["p50"] is not None

    def test_histogram_reservoir_stays_bounded(self):
        histogram = Histogram("h", capacity=64)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._values) <= 64
        # The decimated reservoir still spans the whole stream.
        assert histogram.percentile(0.5) == pytest.approx(5000, rel=0.2)

    def test_empty_histogram_percentile_is_nan(self):
        import math

        assert math.isnan(Histogram("h").percentile(0.5))

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_registry_snapshot_reset_and_json(self):
        registry = MetricsRegistry()
        registry.inc("queries", 3)
        registry.observe("latency", 0.5)
        registry.set_gauge("depth", 7)
        snapshot = registry.snapshot()
        assert snapshot["queries"]["value"] == 3
        assert snapshot["latency"]["count"] == 1
        assert snapshot["depth"]["value"] == 7
        parsed = json.loads(registry.to_json())
        assert parsed["queries"]["type"] == "counter"
        registry.reset()
        assert registry.counter("queries").value == 0.0
        assert registry.histogram("latency").count == 0

    def test_counter_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


# --------------------------------------------------------------------- tracing
class TestTracing:
    def test_span_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", statement="q") as root:
            with tracer.span("child.a") as a:
                a.set_tag("rows", 10)
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child.b"):
                pass
        assert root.finished
        assert [child.name for child in root.children] == ["child.a", "child.b"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.find("grandchild") is not None
        assert len(root.find_all("child.a")) == 1
        assert root.duration_seconds >= root.children[0].duration_seconds

    def test_root_spans_land_in_ring_buffer_and_exporters(self, tmp_path):
        memory = InMemorySpanExporter()
        jsonl = JsonlSpanExporter(tmp_path / "traces.jsonl")
        tracer = Tracer(exporters=(memory, jsonl), max_traces=2)
        for index in range(3):
            with tracer.span(f"trace{index}"):
                pass
        # Ring buffer keeps only the last two, exporters saw all three.
        assert [span.name for span in tracer.traces] == ["trace1", "trace2"]
        assert tracer.last_trace().name == "trace2"
        assert [span.name for span in memory.spans] == ["trace0", "trace1", "trace2"]
        lines = (tmp_path / "traces.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["name"] == "trace0"

    def test_exception_tags_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        root = tracer.last_trace()
        assert "RuntimeError" in root.tags["error"]

    def test_to_dict_and_render(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("inner", rows=5):
                pass
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["children"][0]["tags"] == {"rows": 5}
        text = root.render()
        assert "root" in text and "inner" in text and "ms" in text

    def test_summarize_trace_derives_counters(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("sample.draw", rows=100):
                pass
            with tracer.span("isla.iteration", iterations=7):
                pass
        summary = summarize_trace(root)
        assert summary["counters"]["sample.rows"] == 100
        assert summary["counters"]["isla.iterations"] == 7
        assert summary["counters"]["spans"] == 3
        assert set(summary["stage_seconds"]) == {"query", "sample.draw", "isla.iteration"}


# ------------------------------------------------------------------- telemetry
class TestTelemetry:
    def test_disabled_span_is_the_shared_noop(self):
        telemetry = obs.Telemetry(enabled=False)
        with telemetry.activate():
            assert obs.span("x") is NULL_SPAN
            with obs.span("x") as sp:
                sp.set_tag("ignored", 1)
            assert telemetry.tracer.traces == ()
        # Disabled counters/observations record nothing either.
        with telemetry.activate():
            obs.counter("c", 5)
            obs.observe("h", 1.0)
        assert telemetry.registry.names == ()

    def test_enabled_scope_records_spans_and_metrics(self):
        telemetry = obs.Telemetry(enabled=True)
        with telemetry.activate():
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.counter("c")
        root = telemetry.tracer.last_trace()
        assert root.name == "outer"
        assert root.children[0].name == "inner"
        assert telemetry.registry.counter("c").value == 1

    def test_env_variable_toggle(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "1")
        assert obs.Telemetry().enabled
        monkeypatch.setenv(obs.ENV_VAR, "off")
        assert not obs.Telemetry().enabled
        monkeypatch.delenv(obs.ENV_VAR)
        assert not obs.Telemetry().enabled

    def test_stopwatch_times_even_when_disabled(self):
        telemetry = obs.Telemetry(enabled=False)
        with telemetry.activate():
            with obs.stopwatch("stage") as watch:
                pass
        assert watch.span is None
        assert watch.elapsed_seconds >= 0.0
        assert telemetry.registry.names == ()

    def test_stopwatch_records_span_and_histogram_when_enabled(self):
        telemetry = obs.Telemetry(enabled=True)
        with telemetry.activate():
            with obs.stopwatch("stage", kind="test") as watch:
                pass
        assert watch.span is not None
        assert telemetry.tracer.last_trace().name == "stage"
        assert telemetry.registry.histogram("stage.seconds").count == 1


# ---------------------------------------------------------------------- wiring
class TestQueryTelemetry:
    def test_execution_result_carries_span_tree(self, engine):
        result = engine.execute("SELECT AVG(value) FROM readings PRECISION 0.5")
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.trace.name == "query"
        child_names = [child.name for child in telemetry.trace.children]
        assert child_names == ["query.parse", "query.plan", "query.execute"]
        assert telemetry.trace.find("isla.aggregate") is not None
        assert telemetry.trace.find("sample.draw") is not None
        assert telemetry.counters["sample.rows"] > 0
        assert telemetry.counters["isla.blocks"] == 10
        assert "isla.iteration" in telemetry.stage_seconds
        # The summary serialises cleanly.
        json.dumps(telemetry.to_dict())

    def test_baseline_method_is_traced_too(self, engine):
        result = engine.execute(
            "SELECT AVG(value) FROM readings PRECISION 0.5 METHOD US"
        )
        draw = result.telemetry.trace.find("sample.draw")
        assert draw is not None
        assert draw.tags["method"] == "US"
        assert result.telemetry.counters["sample.rows"] == result.sample_size

    def test_disabled_engine_attaches_no_telemetry(self, normal_values):
        engine = AQPEngine(ISLAConfig(telemetry=False), seed=5)
        engine.register_array("readings", normal_values, block_count=10)
        result = engine.execute("SELECT AVG(value) FROM readings PRECISION 0.5")
        assert result.telemetry is None

    def test_noop_mode_emits_no_spans_at_all(self, store):
        # Run a full aggregation inside a disabled scope and assert the
        # disabled fast path produced zero spans and zero metrics.
        telemetry = obs.Telemetry(enabled=False)
        with telemetry.activate():
            ISLAAggregator(ISLAConfig(precision=0.5), seed=3).aggregate_avg(store)
        assert telemetry.tracer.traces == ()
        assert telemetry.registry.names == ()

    def test_aggregator_config_toggle_records_standalone(self, store):
        aggregator = ISLAAggregator(
            ISLAConfig(precision=0.5, telemetry=True), seed=3
        )
        aggregator.aggregate_avg(store)
        root = aggregator.telemetry.tracer.last_trace()
        assert root.name == "isla.aggregate"
        assert root.find("isla.pre_estimate") is not None

    def test_parallel_extension_keeps_spans_in_one_trace(self, store):
        from repro.parallel import ScanPool

        telemetry = obs.Telemetry(enabled=True)
        with ScanPool(max_workers=4) as pool, telemetry.activate():
            ISLAAggregator(
                ISLAConfig(precision=0.5), seed=6, pool=pool, parallelism=4
            ).aggregate_avg(store)
        root = telemetry.tracer.last_trace()
        assert root.name == "isla.aggregate"
        # Worker-thread spans attach to the same trace via context copies.
        assert len(root.find_all("isla.block")) == store.block_count
        assert len(root.find_all("sample.draw")) == store.block_count
        counters = obs.summarize_trace(root)["counters"]
        assert counters["isla.blocks"] == store.block_count

    def test_timed_extension_replaces_manual_timing(self, store):
        from repro.extensions.time_constraint import TimeConstrainedAggregator

        telemetry = obs.Telemetry(enabled=True)
        with telemetry.activate():
            result = TimeConstrainedAggregator(
                ISLAConfig(precision=0.5), seed=2
            ).aggregate_within(store, budget_seconds=5.0)
        root = telemetry.tracer.last_trace()
        assert root.name == "timed.aggregate"
        assert root.find("timed.calibrate") is not None
        assert result.elapsed_seconds > 0


class TestExplainAnalyze:
    def test_report_contains_plan_timings_and_counters(self, normal_values):
        # explain_analyze force-enables telemetry even on a default engine.
        engine = AQPEngine(seed=5)
        engine.register_array("readings", normal_values, block_count=10)
        report = engine.explain_analyze(
            "SELECT AVG(value) FROM readings PRECISION 0.5 CONFIDENCE 0.95"
        )
        assert "via ISLA" in report                       # the logical plan
        assert "query.execute" in report                  # the span tree
        assert "isla.pre_estimate" in report
        assert "ms" in report                             # per-stage timings
        assert "isla.iterations" in report                # iteration count
        assert "sample.rows" in report                    # per-stage samples
        assert "stage totals:" in report

    def test_exact_method_report(self, engine):
        report = engine.explain_analyze("SELECT AVG(value) FROM readings METHOD EXACT")
        assert "EXACT" in report and "query.execute" in report


class TestMetricsOut:
    def test_cli_writes_metrics_json(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "metrics.json"
        previous = obs.get_telemetry().enabled
        try:
            assert main(
                ["table7", "--data-size", "30000", "--seed", "2",
                 "--metrics-out", str(out)]
            ) == 0
        finally:
            obs.configure(enabled=previous)
        payload = json.loads(out.read_text())
        assert "table7" in payload["experiments"]
        assert payload["experiments"]["table7"] > 0
        assert "experiment.table7.seconds" in payload["metrics"]
        assert payload["metrics"]["sample.rows"]["value"] > 0
