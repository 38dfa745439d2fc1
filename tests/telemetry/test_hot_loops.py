"""What the hot loops export with telemetry attached, component by component.

Each loop exists once; these pin the parts of its telemetry that do not
sit in the loop body: dispatch counts derived from heap bookkeeping, the
grant observed through the sink, and the batch an MDS tick serves only
in part.
"""

from __future__ import annotations

from repro.core.requests import OperationType, Request
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.pfs.mds import MDSConfig, MetadataServer
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker
from repro.telemetry import Telemetry, TelemetryConfig


def _telemetry(trace: bool = True) -> Telemetry:
    return Telemetry(TelemetryConfig(seed=0, sample_rate=1.0, trace=trace))


def _dispatches(telemetry: Telemetry) -> tuple:
    registry = telemetry.registry
    return tuple(
        registry.get("padll_engine_dispatches_total", kind=kind).value
        for kind in ("call", "event")
    )


class TestEngineDispatchCounts:
    def test_counts_match_a_hand_tally(self):
        telemetry = _telemetry()
        env = Environment(telemetry=telemetry)

        def sleeper():
            for _ in range(3):
                yield env.timeout(1.0)

        env.process(sleeper())  # 1 boot call, 3 timeouts, 1 termination event
        # 1 boot call (which ticks at t=0 itself), then one call per tick
        # at t=2 and t=4; the t=6 entry is beyond the horizon.
        ticker = Ticker(env, 2.0, lambda now: None)
        env.call_at(10.0, lambda: None)  # beyond the horizon: stays queued
        env.run(until=5.0)
        assert _dispatches(telemetry) == (4.0, 4.0)
        assert telemetry.registry.get("padll_engine_sim_time_seconds").value == 5.0
        ticker.stop()
        env.run()  # the stopped t=6 entry and the leftover timeout; counters accumulate
        assert _dispatches(telemetry) == (5.0, 5.0)

    def test_counts_survive_a_raising_callback(self):
        telemetry = _telemetry()
        env = Environment(telemetry=telemetry)

        def boom(now):
            raise RuntimeError("boom")

        Ticker(env, 1.0, lambda now: None)
        Ticker(env, 1.0, boom)
        Ticker(env, 1.0, lambda now: None)
        try:
            env.run()
        except RuntimeError:
            pass
        assert _dispatches(telemetry) == (2.0, 0.0)


class TestChannelGrantsObservedThroughTheSink:
    def _stage(self, telemetry, sink):
        stage = DataPlaneStage(StageIdentity("s0", "job0"), sink, telemetry=telemetry)
        stage.create_channel("md", rate=4.0, burst=4.0)
        return stage, stage.channels["md"]

    def test_split_grant_is_observed_and_delivered(self):
        telemetry = _telemetry()
        delivered = []
        stage, channel = self._stage(telemetry, delivered.append)
        request = Request(OperationType.OPEN, path="/f", count=10.0)
        request.trace = telemetry.tracer.sample()
        channel.enqueue(request, 0.0)
        assert stage.drain(2.0) == 4.0
        assert [r.count for r in delivered] == [4.0]
        histogram = telemetry.registry.get(
            "padll_channel_queue_wait_seconds", stage="s0", channel="md"
        )
        assert (histogram.count, histogram.total) == (4.0, 8.0)
        (span,) = telemetry.tracer.spans
        assert (span.name, span.start, span.end) == ("queue.wait", 0.0, 2.0)
        assert span.attrs == {"channel": "md", "count": 4.0}
        granted = telemetry.registry.get(
            "padll_channel_granted_ops_total", stage="s0", channel="md"
        )
        assert granted.value == 4.0

    def test_drain_collect_takes_the_same_walk(self):
        telemetry = _telemetry(trace=False)
        stage, channel = self._stage(telemetry, lambda request: None)
        channel.enqueue(Request(OperationType.OPEN, path="/f", count=3.0), 0.0)
        grants = []
        assert stage.drain_collect(1.0, grants) == 3.0
        assert [r.count for r in grants] == [3.0]
        histogram = telemetry.registry.get(
            "padll_channel_queue_wait_seconds", stage="s0", channel="md"
        )
        assert histogram.count == 3.0


class TestMdsPartialBatch:
    def test_partly_served_batch_is_observed_each_tick_and_closed_once(self):
        telemetry = _telemetry()
        mds = MetadataServer(config=MDSConfig(capacity=10.0, can_fail=False))
        mds.attach_telemetry(telemetry)
        ctx = telemetry.tracer.sample()
        mds.offer("getattr", 4.0, 0.0)
        mds.offer("getattr", 16.0, 0.0, ctx=ctx)
        histogram = telemetry.registry.get(
            "padll_mds_service_latency_seconds", mds="mds0"
        )
        # Tick 1: the first batch whole, 6 of the second's 16 ops.
        assert mds.service(0.0, 1.0) == 10.0
        assert histogram.count == 10.0
        assert telemetry.tracer.spans == []
        # Tick 2: the remaining 10 ops finish the sampled batch.
        assert mds.service(1.0, 1.0) == 10.0
        assert (histogram.count, histogram.total) == (20.0, 10.0)
        assert [(s.name, s.start, s.end) for s in telemetry.tracer.spans] == [
            ("mds.service", 0.0, 1.0),
            ("reply", 1.0, 1.0),
        ]
        served = telemetry.registry.get("padll_mds_served_ops_total", mds="mds0")
        assert served.value == 20.0
