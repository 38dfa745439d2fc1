"""Exporters: JSONL trace/event dumps and a Prometheus-style text snapshot.

All output is deterministic: JSON objects are dumped with sorted keys,
JSONL lines preserve emission order (which is simulation order), and the
metrics snapshot sorts on ``(name, labels)``.  Two runs with the same
seed and sampling rate therefore export byte-identical artifacts -- the
telemetry test suite asserts exactly that.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.telemetry.events import Event
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import Span, Tracer

__all__ = [
    "events_jsonl",
    "metrics_json",
    "prometheus_text",
    "spans_jsonl",
    "write_text",
]


def spans_jsonl(spans: Union[Tracer, Iterable[Span]]) -> str:
    """Spans as one JSON object per line, in emission (simulation) order."""
    if isinstance(spans, Tracer):
        spans = spans.spans
    return _jsonl(span.to_dict() for span in spans)


def events_jsonl(events: Iterable[Event]) -> str:
    """Events as one JSON object per line, in emission order."""
    return _jsonl(event.to_dict() for event in events)


def _jsonl(docs: Iterable[Dict[str, object]]) -> str:
    lines = [json.dumps(doc, sort_keys=True) for doc in docs]
    return "\n".join(lines) + ("\n" if lines else "")


_NAME_OK_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_OK_REST = _NAME_OK_FIRST | set("0123456789")


def _sanitize_name(name: str) -> str:
    """Coerce a registry name into a legal exposition-format metric name.

    Registry names may carry dots (the monitoring collector publishes
    probe series like ``mds.total``); the text format only allows
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``, so every illegal character becomes an
    underscore and a leading digit gains one.
    """
    if not name:
        return "_"
    chars = [c if c in _NAME_OK_REST else "_" for c in name]
    if chars[0] not in _NAME_OK_FIRST:
        chars.insert(0, "_")
    return "".join(chars)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_name(key)}="{_escape_label_value(str(value))}"'
        for key, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class _Family:
    """One exposition-format metric family: HELP + TYPE + sample lines."""

    __slots__ = ("kind", "help", "lines")

    def __init__(self, kind: str, help_text: str) -> None:
        self.kind = kind
        self.help = help_text
        self.lines: List[str] = []


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition-format text snapshot, grouped per family.

    Every family renders one ``# HELP`` line (the registry description
    when one was attached via :meth:`MetricsRegistry.describe`, a
    generated fallback otherwise), one ``# TYPE`` line, then its sample
    lines -- samples of one family are contiguous, as the format
    requires.  Names are sanitised to the legal character set, label
    values are escaped, and histogram ``_count`` lines are derived from
    the same cumulative-bucket snapshot as the ``+Inf`` bucket so the
    two agree even while a writer thread keeps observing.  Families are
    sorted by name and samples by labels, so output is deterministic.

    Timeseries registered by the monitoring collector are rendered as
    gauges holding their last sampled value, with the sample count in a
    companion ``<name>_samples`` family.
    """
    entries = sorted(registry.items(), key=lambda item: (item[0], item[1]))
    families: Dict[str, _Family] = {}

    def family(raw_name: str, kind: str, suffix: str = "") -> _Family:
        name = _sanitize_name(raw_name) + suffix
        found = families.get(name)
        if found is None:
            described = registry.help_for(raw_name)
            if described is not None and suffix:
                described = f"{described} ({suffix.lstrip('_')})"
            help_text = (
                described
                if described is not None
                else f"{kind} {raw_name}{suffix}"
            )
            found = families[name] = _Family(kind, _escape_help(help_text))
        return found

    for name, labels, kind, metric in entries:
        label_text = _label_text(labels)
        exposed = _sanitize_name(name)
        if kind in ("counter", "gauge"):
            family(name, kind).lines.append(
                f"{exposed}{label_text} {_format_value(metric.value)}"
            )
        elif kind == "histogram":
            fam = family(name, "histogram")
            cumulative = metric.cumulative()
            for le, count in cumulative:
                bucket_labels = labels + (("le", _format_value(le)),)
                fam.lines.append(
                    f"{exposed}_bucket{_label_text(bucket_labels)} "
                    f"{_format_value(count)}"
                )
            total_count = cumulative[-1][1] if cumulative else metric.count
            fam.lines.append(
                f"{exposed}_count{label_text} {_format_value(total_count)}"
            )
            fam.lines.append(
                f"{exposed}_sum{label_text} {_format_value(metric.total)}"
            )
        else:  # timeseries
            value = metric.last()[1] if len(metric) else 0.0
            family(name, "gauge").lines.append(
                f"{exposed}{label_text} {_format_value(value)}"
            )
            family(name, "gauge", "_samples").lines.append(
                f"{exposed}_samples{label_text} {len(metric)}"
            )

    lines: List[str] = []
    for name in sorted(families):
        fam = families[name]
        lines.append(f"# HELP {name} {fam.help}")
        lines.append(f"# TYPE {name} {fam.kind}")
        lines.extend(fam.lines)
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_json(registry: MetricsRegistry) -> Dict[str, object]:
    """JSON-safe snapshot mirroring :func:`prometheus_text`."""
    metrics: List[Dict[str, object]] = []
    for name, labels, kind, metric in sorted(
        registry.items(), key=lambda item: (item[0], item[1])
    ):
        entry: Dict[str, object] = {
            "name": name,
            "labels": {key: value for key, value in labels},
            "kind": kind,
        }
        if kind in ("counter", "gauge"):
            entry["value"] = metric.value
        elif kind == "histogram":
            entry["buckets"] = [
                {"le": _format_value(le), "count": count} for le, count in metric.cumulative()
            ]
            entry["count"] = metric.count
            entry["sum"] = metric.total
        else:  # timeseries
            entry["value"] = metric.last()[1] if len(metric) else None
            entry["samples"] = len(metric)
        metrics.append(entry)
    return {"version": 1, "metrics": metrics}


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write an exported artifact; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
