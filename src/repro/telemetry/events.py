"""Structured events: the control loop's decision record.

Every enforcement cycle appends one ``control.cycle`` event carrying the
observed per-channel demand, the algorithm's inputs, the computed rates,
and the rate deltas against the previous cycle.  Events are plain
``(kind, time, fields)`` records appended in simulation order; like the
tracer, the log holds no clock -- emitters pass the sim time explicitly
(the DET006 lint rule enforces exactly that in deterministic layers).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping

__all__ = ["Event", "EventLog"]


class Event:
    """One structured event at sim time ``time``; ``fields`` is JSON-safe."""

    __slots__ = ("kind", "time", "fields")

    def __init__(self, kind: str, time: float, fields: Dict[str, object]) -> None:
        self.kind = kind
        self.time = time
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """The event as JSON-safe data: what the JSONL export, the event
        queries, the audit sink and a stage host's telemetry push carry."""
        return {"kind": self.kind, "time": self.time, "fields": dict(self.fields)}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Event":
        """Inverse of :meth:`to_dict`."""
        return cls(str(doc["kind"]), float(doc["time"]), dict(doc.get("fields", {})))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.kind!r}, t={self.time})"


class EventLog:
    """Append-only event sink shared by one world's instrumented components."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, kind: str, now: float, /, **fields: object) -> None:
        """Append ``kind`` at sim time ``now`` with JSON-safe ``fields``.

        ``kind`` and ``now`` are positional-only, so a field may carry
        either name (``client.mds_unavailable`` has a ``kind`` field).
        """
        self.events.append(Event(kind, now, fields))

    def of_kind(self, kind: str) -> Iterator[Event]:
        return (event for event in self.events if event.kind == kind)

    def __len__(self) -> int:
        return len(self.events)
