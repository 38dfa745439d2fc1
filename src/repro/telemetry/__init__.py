"""`repro.telemetry` -- the deterministic instrumentation spine.

One :class:`Telemetry` object per world bundles a metrics registry
(counters / gauges / sim-time-windowed histograms), an optional
per-request span tracer with seeded head sampling, and a structured
event log fed by the control loop.  Everything is stamped from the sim
clock by the *caller* (lint rule DET006 enforces it), off by default,
and free when off.  See docs/OBSERVABILITY.md.
"""

from repro.telemetry.events import Event, EventLog
from repro.telemetry.experiment import TracedFig4, run_traced_fig4
from repro.telemetry.export import (
    events_jsonl,
    metrics_json,
    prometheus_text,
    spans_jsonl,
    write_text,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.runtime import Telemetry, TelemetryConfig
from repro.telemetry.trace import Span, TraceContext, Tracer, sample_uniform
from repro.telemetry.waterfall import render_controller_timeline, render_waterfall

__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TraceContext",
    "TracedFig4",
    "Tracer",
    "run_traced_fig4",
    "events_jsonl",
    "metrics_json",
    "prometheus_text",
    "render_controller_timeline",
    "render_waterfall",
    "sample_uniform",
    "spans_jsonl",
    "write_text",
]
