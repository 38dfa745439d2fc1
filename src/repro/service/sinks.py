"""Persistent JSONL sinks: the durable shadow of the in-memory ring logs.

The operator service keeps its audit trail and telemetry events in
bounded in-memory structures -- right for a scrape surface, wrong for
forensics.  With ``--audit-dir`` the service *also* appends every audit
record to ``audit.jsonl`` and every telemetry event to ``events.jsonl``
in that directory, one canonical-JSON document per line, rotating each
file to ``<name>.jsonl.1`` when it crosses the configured size.

The sink is strictly additive: the in-memory logs stay authoritative
for every read endpoint, and ``tests/service/test_sinks.py`` pins the
replay property -- re-reading the JSONL reproduces the ring log's
records exactly (modulo ring eviction, which the file does not have).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import ConfigError
from repro.telemetry.events import Event, EventLog

__all__ = ["JsonlSink", "SinkedEventLog", "load_jsonl"]


class JsonlSink:
    """Append-only JSONL file with size-based rotation.

    Writes are serialised under a lock (audit and event emission are
    cold paths) and flushed per line, so a SIGKILL'd process loses at
    most the line being written.  Rotation keeps exactly one generation:
    when the live file would cross ``rotate_bytes``, it is renamed to
    ``<path>.1`` (replacing any previous generation) and a fresh file is
    started -- a bounded-disk contract mirroring the ring logs' bounded
    memory.
    """

    def __init__(self, path: Union[str, Path], rotate_bytes: int = 1_000_000) -> None:
        if rotate_bytes < 1:
            raise ConfigError(
                f"rotate_bytes must be >= 1, got {rotate_bytes}"
            )
        self.path = Path(path)
        self.rotate_bytes = rotate_bytes
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = self.path.stat().st_size
        self.rotations = 0
        self.written = 0

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def write(self, doc: Dict[str, Any]) -> None:
        """Append one JSON document as a line; rotate first if it would
        push the live file past the threshold."""
        line = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._file.closed:
                return
            if self._size and self._size + len(data) > self.rotate_bytes:
                self._rotate_locked()
            self._file.write(line)
            self._file.flush()
            self._size += len(data)
            self.written += 1

    def _rotate_locked(self) -> None:
        self._file.close()
        self.path.replace(self.rotated_path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class SinkedEventLog(EventLog):
    """An :class:`~repro.telemetry.events.EventLog` shadowed by a sink.

    Drop-in replacement installed by the runtime before world
    construction, so every component holding the telemetry spine writes
    through it unknowingly.  The in-memory list stays the read surface;
    the sink is write-only.
    """

    __slots__ = ("sink",)

    def __init__(self, sink: JsonlSink) -> None:
        super().__init__()
        self.sink = sink

    def emit(self, kind: str, now: float, /, **fields: object) -> None:
        super().emit(kind, now, **fields)
        self.sink.write(Event(kind, now, fields).to_dict())


def load_jsonl(
    path: Union[str, Path], *, with_rotated: bool = False
) -> List[Dict[str, Any]]:
    """Read a sink back: one dict per line, oldest first.

    ``with_rotated`` prepends the ``.1`` generation when present, so the
    result covers everything still on disk in write order.
    """
    paths: List[Path] = []
    live = Path(path)
    if with_rotated:
        rotated = live.with_name(live.name + ".1")
        if rotated.exists():
            paths.append(rotated)
    if live.exists():
        paths.append(live)
    docs: List[Dict[str, Any]] = []
    for candidate in paths:
        with open(candidate, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    docs.append(json.loads(line))
    return docs
