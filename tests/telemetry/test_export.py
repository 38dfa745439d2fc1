"""Exporter formats: JSONL traces/events, Prometheus text, JSON snapshot."""

from __future__ import annotations

import json

from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    Tracer,
    events_jsonl,
    metrics_json,
    prometheus_text,
    spans_jsonl,
)


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("padll_ops_total", stage="s0").inc(5.0)
    registry.gauge("padll_rate_limit").set(100.0)
    hist = registry.histogram("padll_wait_seconds", bounds=(0.1, 1.0), stage="s0")
    hist.observe(0.05, n=2.0)
    hist.observe(0.5)
    series = registry.timeseries("mds.total")
    series.append(5.0, 10.0)
    series.append(10.0, 20.0)
    return registry


class TestJsonl:
    def test_spans_jsonl_round_trips(self):
        tracer = Tracer(seed=0, sample_rate=1.0)
        ctx = tracer.sample()
        tracer.emit_span(ctx, "queue.wait", 1.0, 2.0, channel="meta")
        text = spans_jsonl(tracer)
        lines = text.splitlines()
        assert len(lines) == 1 and text.endswith("\n")
        record = json.loads(lines[0])
        assert record["name"] == "queue.wait"
        assert record["trace_id"] == ctx.trace_id
        assert record["attrs"] == {"channel": "meta"}

    def test_empty_exports_are_empty_strings(self):
        assert spans_jsonl([]) == ""
        assert events_jsonl([]) == ""

    def test_events_jsonl(self):
        log = EventLog()
        log.emit("control.cycle", 5.0, iteration=1)
        record = json.loads(events_jsonl(log.events).splitlines()[0])
        assert record["kind"] == "control.cycle"
        assert record["time"] == 5.0
        assert record["fields"] == {"iteration": 1}

    def test_fields_may_be_named_like_emit_parameters(self):
        # ``kind`` and ``now`` are positional-only: the JSONL nests fields,
        # so an event can carry e.g. the op kind it is about.
        log = EventLog()
        log.emit("client.mds_unavailable", 5.0, kind="open", now=4.0)
        record = json.loads(events_jsonl(log.events).splitlines()[0])
        assert record["kind"] == "client.mds_unavailable"
        assert record["time"] == 5.0
        assert record["fields"] == {"kind": "open", "now": 4.0}


class TestPrometheusText:
    def test_renders_all_kinds(self):
        text = prometheus_text(_sample_registry())
        assert '# TYPE padll_ops_total counter' in text
        assert 'padll_ops_total{stage="s0"} 5' in text
        assert "padll_rate_limit 100" in text
        assert 'padll_wait_seconds_bucket{stage="s0",le="0.1"} 2' in text
        assert 'padll_wait_seconds_bucket{stage="s0",le="+Inf"} 3' in text
        assert 'padll_wait_seconds_count{stage="s0"} 3' in text
        # Timeseries render as last-value gauge plus a sample count; the
        # dotted source name is sanitised for the 0.0.4 text format.
        assert "mds_total 20" in text
        assert "mds_total_samples 2" in text
        # The sanitised family keeps a pointer to the original name.
        assert "# HELP mds_total gauge mds.total" in text

    def test_every_family_has_help_and_type(self):
        text = prometheus_text(_sample_registry())
        families = [
            line.split(" ", 3)[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        helps = [
            line.split(" ", 3)[2]
            for line in text.splitlines()
            if line.startswith("# HELP ")
        ]
        assert families and families == helps

    def test_deterministic_output(self):
        assert prometheus_text(_sample_registry()) == prometheus_text(
            _sample_registry()
        )


class TestMetricsJson:
    def test_snapshot_schema(self):
        snapshot = metrics_json(_sample_registry())
        assert snapshot["version"] == 1
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        assert by_name["padll_ops_total"]["kind"] == "counter"
        assert by_name["padll_ops_total"]["value"] == 5.0
        assert by_name["padll_wait_seconds"]["count"] == 3.0
        assert by_name["mds.total"]["samples"] == 2

    def test_json_serialisable(self):
        json.dumps(metrics_json(_sample_registry()), sort_keys=True)
