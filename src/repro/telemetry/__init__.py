"""`repro.telemetry` -- the deterministic instrumentation spine.

One :class:`Telemetry` object per world bundles a metrics registry
(counters / gauges / sim-time-windowed histograms), an optional
per-request span tracer with seeded head sampling, and a structured
event log fed by the control loop.  Everything is stamped from the sim
clock by the *caller* (lint rule DET006 enforces it), off by default,
and free when off.  See docs/OBSERVABILITY.md.
"""

from repro import lazy_exports

_EXPORTS = {
    "Counter": "repro.telemetry.registry",
    "Event": "repro.telemetry.events",
    "EventLog": "repro.telemetry.events",
    "Gauge": "repro.telemetry.registry",
    "Histogram": "repro.telemetry.registry",
    "MetricsRegistry": "repro.telemetry.registry",
    "Span": "repro.telemetry.trace",
    "Telemetry": "repro.telemetry.runtime",
    "TelemetryConfig": "repro.telemetry.runtime",
    "TraceContext": "repro.telemetry.trace",
    "TracedFig4": "repro.telemetry.experiment",
    "Tracer": "repro.telemetry.trace",
    "run_traced_fig4": "repro.telemetry.experiment",
    "events_jsonl": "repro.telemetry.export",
    "metrics_json": "repro.telemetry.export",
    "prometheus_text": "repro.telemetry.export",
    "render_controller_timeline": "repro.telemetry.waterfall",
    "render_waterfall": "repro.telemetry.waterfall",
    "sample_uniform": "repro.telemetry.trace",
    "spans_jsonl": "repro.telemetry.export",
    "write_text": "repro.telemetry.export",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
