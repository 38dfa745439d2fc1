"""Structured events: the control loop's decision record.

Every enforcement cycle appends one ``control.cycle`` event carrying the
observed per-channel demand, the algorithm's inputs, the computed rates,
and the rate deltas against the previous cycle.  Events are plain
``(kind, time, fields)`` records appended in simulation order; like the
tracer, the log holds no clock -- emitters pass the sim time explicitly
(the DET006 lint rule enforces exactly that in deterministic layers).

An emitter that appends a record on every tick keeps it as a
:class:`RowEvent`: the tick's inputs as values, rendered to ``fields`` on
each read, so the log does not hold a dict tree per tick that most
records never have read.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Mapping

__all__ = ["Event", "EventLog", "RowEvent"]


class Event:
    """One structured event at sim time ``time``; ``fields`` is JSON-safe."""

    __slots__ = ("kind", "time", "fields")

    def __init__(self, kind: str, time: float, fields: Dict[str, object]) -> None:
        self.kind = kind
        self.time = time
        self.fields = fields

    def field(self, name: str, default: Any = None) -> Any:
        """``fields.get(name, default)``."""
        return self.fields.get(name, default)

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


class RowEvent(Event):
    """An event held as a row of values, rendered to ``fields`` on read.

    A subclass adds the row's slots and :meth:`render`, which builds a new
    ``fields`` dict from them on every read -- the dict an emitter building
    it at once would have appended.  A row holds values only: immutable
    records, and arrays or tuples that nothing writes after the row is
    made, never a view of a buffer a later tick overwrites.  ``names`` is
    every key :meth:`render` can produce, so :meth:`field` answers for any
    other key without rendering.
    """

    __slots__ = ()

    #: The keys :meth:`render` may put in ``fields``.
    names: FrozenSet[str] = frozenset()

    @property
    def fields(self) -> Dict[str, object]:  # type: ignore[override]
        return self.render()

    def render(self) -> Dict[str, object]:
        raise NotImplementedError

    def field(self, name: str, default: Any = None) -> Any:
        if name not in self.names:
            return default
        return self.render().get(name, default)


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

    def append(self, event: Event) -> None:
        """Append an event built by its emitter (a :class:`RowEvent`)."""
        self.events.append(event)

    def of_kind(self, kind: str) -> Iterator[Event]:
        return (event for event in self.events if event.kind == kind)

    def __len__(self) -> int:
        return len(self.events)
