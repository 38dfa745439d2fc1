"""Persistent JSONL sinks: rotation bounds disk, replay matches the ring.

The contract under test: with ``audit_dir`` set, every audit record and
telemetry event that lands in the in-memory logs *also* lands on disk,
and reading the JSONL back reproduces the in-memory records exactly --
the forensics copy is never an approximation of what the service saw.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.service import ServiceConfig, ServiceRuntime, WorkloadSpec
from repro.service.audit import AuditLog
from repro.service.sinks import JsonlSink, SinkedEventLog, load_jsonl
from repro.service.stagehost import telemetry_push
from repro.telemetry.events import Event


class TestJsonlSink:
    def test_append_and_load(self, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        docs = [{"n": i, "pi": 3.141592653589793} for i in range(5)]
        for doc in docs:
            sink.write(doc)
        sink.close()
        assert load_jsonl(tmp_path / "out.jsonl") == docs
        assert sink.written == 5
        assert sink.rotations == 0

    def test_creates_parent_directories(self, tmp_path):
        sink = JsonlSink(tmp_path / "deep" / "er" / "out.jsonl")
        sink.write({"a": 1})
        sink.close()
        assert load_jsonl(tmp_path / "deep" / "er" / "out.jsonl") == [{"a": 1}]

    def test_rotation_keeps_one_generation(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path, rotate_bytes=200)
        for i in range(50):
            sink.write({"n": i, "pad": "x" * 20})
        sink.close()
        assert sink.rotations > 1
        assert path.stat().st_size <= 200
        assert sink.rotated_path.exists()
        # The live file + one rotated generation is all that remains.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.jsonl",
            "out.jsonl.1",
        ]
        docs = load_jsonl(path, with_rotated=True)
        # Write order is preserved across the rotation boundary, and the
        # surviving window is the *newest* records, contiguously.
        ns = [doc["n"] for doc in docs]
        assert ns == list(range(ns[0], 50))

    def test_write_after_close_is_dropped(self, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        sink.close()
        sink.write({"late": True})  # must not raise
        assert load_jsonl(tmp_path / "out.jsonl") == []

    def test_invalid_rotate_bytes(self, tmp_path):
        with pytest.raises(ConfigError):
            JsonlSink(tmp_path / "out.jsonl", rotate_bytes=0)


class TestAuditReplay:
    def test_sink_matches_ringlog(self, tmp_path):
        sink = JsonlSink(tmp_path / "audit.jsonl")
        clock_value = [0.0]
        audit = AuditLog(clock=lambda: clock_value[0], sink=sink)
        for i in range(10):
            clock_value[0] = float(i)
            audit.append(
                "policy.set",
                {"name": f"p{i}", "rate": 10.5 * i},
                ok=(i % 3 != 0),
                error=None if i % 3 else "refused",
            )
        sink.close()
        assert load_jsonl(tmp_path / "audit.jsonl") == audit.snapshot()


class TestSinkedEventLog:
    def test_emit_mirrors_to_sink(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        log = SinkedEventLog(sink)
        log.emit("control.cycle", 1.5, jobs=3, rate=33.333333333333336)
        log.emit("host.evict", 2.0, host="host0", reason="connection closed")
        sink.close()
        docs = load_jsonl(tmp_path / "events.jsonl")
        assert docs == [
            {
                "kind": event.kind,
                "time": event.time,
                "fields": dict(event.fields),
            }
            for event in log.events
        ]


class TestRuntimeIntegration:
    def test_audit_dir_shadows_both_logs(self, tmp_path):
        runtime = ServiceRuntime(
            ServiceConfig(
                port=0,
                interval=0.05,
                seed=11,
                workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=0.0),
                capacity=100.0,
                audit_dir=str(tmp_path),
            )
        )
        runtime.admin("policy.set", {"name": "burst", "channel": "metadata", "rate": 44.0})
        runtime.admin("job.rate", {"job": "job0", "rate": 20.0})
        runtime.stop()
        audit_docs = load_jsonl(tmp_path / "audit.jsonl")
        assert audit_docs == runtime.audit.snapshot()
        assert [doc["action"] for doc in audit_docs] == ["policy.set", "job.rate"]
        event_docs = load_jsonl(tmp_path / "events.jsonl")
        in_memory = [
            {"kind": e.kind, "time": e.time, "fields": dict(e.fields)}
            for e in runtime.telemetry.events.events
        ]
        assert event_docs == in_memory
        assert any(doc["kind"] == "control.admin" for doc in event_docs)

    def test_merged_remote_events_reach_the_sink(self, tmp_path):
        # A stage host's events are emitted like local ones: same Event in
        # memory, same line on disk.
        runtime = ServiceRuntime(
            ServiceConfig(port=0, stage_procs=1, audit_dir=str(tmp_path))
        )
        merged = {"kind": "stage.adopted", "time": 4.0, "fields": {"stage": "j/s0"}}
        class Link:  # an accepted connection: the name its HELLO carried
            peer = "host0"

        runtime._on_wire_push(
            Link(), telemetry_push([], [Event.from_dict(merged)], [], None)
        )
        runtime.stop()
        assert merged in load_jsonl(tmp_path / "events.jsonl")
        (event,) = runtime.telemetry.events.of_kind("stage.adopted")
        assert (event.time, event.fields) == (4.0, {"stage": "j/s0"})
