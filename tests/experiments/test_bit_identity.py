"""Bit-identity regression tests for the batched replay pipeline.

PR "batch the end-to-end replay pipeline" rewired the replay hot path --
precomputed submission schedules, pooled request batches, fused
submit/drain delivery, interned monitoring windows -- under the contract
that fixed-seed experiment outputs stay *bit-identical*.  These tests pin
that contract down four ways:

1. ``TraceReplayer.schedule`` rows equal per-tick ``demand`` bit-for-bit;
2. SHA-256 digests of multi-stage, per-op, hierarchical and
   partly-unenforced worlds -- untraced, metrics-only and traced -- match
   values recorded on the per-request pipeline ``ReplayWorld`` used to
   carry beside the batched one;
3. SHA-256 digests of fixed-seed fig4/fig5 outputs match golden values
   recorded from the pre-batching implementation;
4. the drain tick -- every stage drained through
   ``DataPlaneStage.drain_collect``, then the grants delivered with the
   routing memoised per kind -- exports, in every telemetry mode, what
   draining stage by stage and routing grant by grant does, enters each
   stage's ``drain_collect`` and each channel's ``Channel.drain`` once,
   and enters no more Python frames for more queued records.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.channel import Channel
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.requests import OperationType, Request, batch_request
from repro.core.stage import DataPlaneStage
from repro.experiments.fig4 import run_fig4_metadata
from repro.experiments.fig5 import run_fig5
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.export import events_jsonl, prometheus_text, spans_jsonl
from repro.workloads.abci import generate_mdt_trace
from repro.workloads.replayer import TraceReplayer
from repro.workloads.trace import OpTrace

# SHA-256 digests of fixed-seed experiment outputs, recorded from the
# implementation *before* the batched replay pipeline landed.  Any change
# to these values means the refactor is no longer output-preserving.
# ``fig5:proportional`` was re-recorded once, when a stage's first collect
# window began to open at the stage's start rather than at t = 0 (its
# jobs arrive later than t = 0).
GOLDEN_DIGESTS = {
    "fig4:open": "adce2b2749041e46df0f26096f40da931c192aebaa22224852a60f9e6c97fb62",
    "fig4:metadata": "6bd0d025551479a66c931cd6bbb3a3a298d67aeb61f46f0fd1c71822ee98bfa3",
    "fig5:baseline": "05a0cdfc7a75c6a46693e2be3da2ef5e10f1d75c43a298597a73886ca03e059d",
    "fig5:proportional": "6b76dc4d25c0aa249ae095e079e658285d843f683de012d0aca77896fd67d7c9",
}


def _hash_array(digest, arr: np.ndarray) -> None:
    digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def fig4_digest(target: str) -> str:
    result = run_fig4_metadata(
        target, seed=0, duration=240.0, step_period=120.0, drain_tail=60.0
    )
    digest = hashlib.sha256()
    digest.update(json.dumps(list(result.limits)).encode())
    for name in sorted(result.series):
        times, values = result.series[name]
        digest.update(name.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    return digest.hexdigest()


def fig5_digest(setup: str) -> str:
    result = run_fig5(setup, seed=0, duration=600.0)
    digest = hashlib.sha256()
    for job_id in sorted(result.job_series):
        times, values = result.job_series[job_id]
        digest.update(job_id.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    for job_id, job in sorted(result.jobs.items()):
        digest.update(
            json.dumps(
                [
                    job_id,
                    job.start,
                    job.completed_at,
                    job.submitted_ops,
                    job.delivered_ops,
                ]
            ).encode()
        )
    digest.update(
        json.dumps([list(entry) for entry in result.enforcement_log]).encode()
    )
    return digest.hexdigest()


class TestScheduleMatchesDemand:
    def test_rows_equal_demand_bitwise(self):
        trace = generate_mdt_trace(seed=3, duration=40 * 60.0)
        replayer = TraceReplayer(trace)
        dt = 1.0
        # Accumulated tick times (t += dt) exactly as the driver builds them.
        times = []
        t = 0.25  # off-grid start exercises fractional sample overlaps
        while t < replayer.replay_duration:
            times.append(t)
            t = t + dt
        matrix = replayer.schedule(times, dt)
        assert matrix.shape == (len(times), len(replayer.kinds))
        for i, replay_time in enumerate(times):
            demand = replayer.demand(replay_time, dt)
            for j, kind in enumerate(replayer.kinds):
                # Bit-exact: the batched path must replay the identical
                # float sequence, not merely an approximately equal one.
                assert matrix[i, j] == demand[kind], (replay_time, kind)

    def test_kind_subset_preserves_columns(self):
        trace = generate_mdt_trace(seed=1, duration=20 * 60.0)
        replayer = TraceReplayer(trace, kinds=("open", "getattr"))
        matrix = replayer.schedule([0.0, 1.0, 2.0], 1.0)
        for i, replay_time in enumerate((0.0, 1.0, 2.0)):
            demand = replayer.demand(replay_time, 1.0)
            assert matrix[i, 0] == demand["open"]
            assert matrix[i, 1] == demand["getattr"]


# -- one replay pipeline ------------------------------------------------------
#
# SHA-256 literals recorded at the commit before ``ReplayWorld`` lost its
# per-request simulator, on that per-request path (multi-stage jobs and
# traced worlds took it; the untraced single-stage world was checked equal
# to its traced twin there).  Per world: (world digest, spans JSONL,
# events JSONL); the last two from ``TelemetryConfig(seed=0,
# sample_rate=0.05, trace=True)``.  The world digest must not depend on the
# telemetry mode, and the events must not depend on tracing.  Every world
# starts its jobs 10 s apart: all were re-recorded once, when a stage's
# first collect window began to open at the stage's start rather than at
# t = 0.  The events hashes were re-recorded once more when the per-stage
# plane folded into the one plane of locals: a ``control.cycle`` event's
# ``observed`` is per local and job since, and it lost ``hierarchical``
# (tests/telemetry/test_stripped_events.py pins every other byte).
ONE_PIPELINE_DIGESTS = {
    "4x4-per-class": (
        "757929600434aba0c74767035c9b56a63d219e05e7faceb2b12549d5e2f433e1",
        "998b6e98e64ff74ff641600697e63758336bb02f6f30c68a3bfc1a216f448616",
        "ceb6ffb15f150ff7214be67322acc4891a17a6808c76db7b0d5ddb546fbff4eb",
    ),
    "3x2-per-op": (
        "6c36edac92103ae6ec4868b2eaddf558048688fb80c973e3ee986b96c651c975",
        "dda1e1f1457ee73db753edc0748113863ce25c6b5b1234b4adaac2acefb8c66d",
        "a82e61f73220b6c33254fa827df08036f3dc392bad1d1befce711d1b93e4a9ed",
    ),
    "3x3-hier-split": (
        "2ad542c535e9e9b6a6e4b6b0be9545c8bd93574f0cbe89c2f1d882ea3d890898",
        "cdfee47d8db9fba1b5482d63c038450b8fa616abd33ae80509c65e473b467009",
        "be0d6862d743d64ce9f54fc73475e47bd4ffcd0e830946701668ac29c6edd41b",
    ),
    "rules-removed-1": (
        "d461f3ba8777837ad8eaa83044b777d9041f01d13d9df7842dd2faa5670115c7",
        "a951165f33c146c68e55656f386bf83efaf0be5bd68926c273428178d52eaec4",
        "39ad485166a6c2b44e07b6fd441dadd67cf248c778525702a0202ab36d3fdcd8",
    ),
    "rules-removed-3": (
        "016323f3a49f633f533e0581d5bfb0e4838971dcdb09e7acf4755a27dcaeb383",
        "9144ee3ff4c83aa680c3155daa19ee0e4e711a3e7e8028fd176f19a5f22e1444",
        "2e167ed9fb13f77c44de1f44f1f9ceb11949609592d6351384b7c472509b947e",
    ),
}

_PER_OP_KINDS = ("open", "close", "getattr", "rename")
_RESERVATION_STEPS = (0.5, 0.75, 1.0, 1.25)


def _sharing_world(n_jobs, n_stages, telemetry, channel_mode="per-class", **world_kw):
    """``n_jobs`` x ``n_stages`` under ProportionalSharing(0.6 x offered),
    reservations cycling over the steps, starts 10 s apart.  Per-op worlds
    share the getattr channel through the algorithm and cap open / rename
    by policy; close stays unlimited."""
    traces = [generate_mdt_trace(seed=j, duration=240 * 60.0) for j in range(n_jobs)]
    offered = 0.0
    for trace in traces:
        replayer = TraceReplayer(trace)
        offered += replayer.total_ops() / replayer.replay_duration
    capacity = 0.6 * offered
    per_op = channel_mode == "per-op"
    world = ReplayWorld(
        Setup.PADLL,
        algorithm=ProportionalSharing(capacity=capacity),
        algorithm_channel="getattr" if per_op else "metadata",
        telemetry=telemetry,
        **world_kw,
    )
    if per_op:
        for kind, share in (("open", 0.05), ("rename", 0.04)):
            world.install_policy(
                PolicyRule(
                    name=f"{kind}-cap",
                    scope=RuleScope(channel_id=kind),
                    schedule=ConstantRate(share * capacity),
                )
            )
    equal = capacity / n_jobs
    for j, trace in enumerate(traces):
        world.set_reservation(f"job{j}", equal * _RESERVATION_STEPS[j % 4])
        world.add_job(
            JobSpec(
                job_id=f"job{j}",
                trace=trace,
                setup=Setup.PADLL,
                start=10.0 * j,
                n_stages=n_stages,
                channel_mode=channel_mode,
                kinds=_PER_OP_KINDS if per_op else None,
            )
        )
    return world


def _rules_removed_world(n_stages, telemetry):
    """Per-op world whose rename / close rules vanish from every stage at
    t = 40 s: from then on those kinds are unenforced rows."""
    world = _sharing_world(2, n_stages, telemetry, channel_mode="per-op")

    def remove_rules():
        for runtime in world._jobs.values():
            for stage in runtime.stages:
                stage.remove_classifier_rule("rename-rule")
                stage.remove_classifier_rule("close-rule")

    world.env.call_at(40.0, remove_rules)
    return world


ONE_PIPELINE_WORLDS = {
    "4x4-per-class": lambda t: _sharing_world(4, 4, t),
    "3x2-per-op": lambda t: _sharing_world(3, 2, t, channel_mode="per-op"),
    "3x3-hier-split": lambda t: _sharing_world(3, 3, t, placement="split"),
    "rules-removed-1": lambda t: _rules_removed_world(1, t),
    "rules-removed-3": lambda t: _rules_removed_world(3, t),
}


def world_digest(world, result) -> str:
    digest = hashlib.sha256()
    digest.update(
        json.dumps([list(entry) for entry in result.enforcement_log]).encode()
    )
    for name in sorted(result.series):
        times, values = result.series[name]
        digest.update(name.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    for job_id, job in sorted(result.jobs.items()):
        digest.update(
            json.dumps(
                [job_id, job.submitted_ops, job.delivered_ops, job.completed_at]
            ).encode()
        )
    digest.update(json.dumps(world._client.submitted_ops).encode())
    return digest.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOnePipeline:
    """Every ``n_stages`` and every telemetry mode: one world, one output."""

    @pytest.mark.parametrize("mode", ["untraced", "metrics", "trace"])
    @pytest.mark.parametrize("name", sorted(ONE_PIPELINE_WORLDS))
    def test_world_matches_per_request_recording(self, name, mode):
        telemetry = None
        if mode != "untraced":
            telemetry = Telemetry(
                TelemetryConfig(seed=0, sample_rate=0.05, trace=mode == "trace")
            )
        world = ONE_PIPELINE_WORLDS[name](telemetry)
        result = world.run(200.0)
        expected_world, expected_spans, expected_events = ONE_PIPELINE_DIGESTS[name]
        assert world_digest(world, result) == expected_world
        if telemetry is not None:
            assert _sha(events_jsonl(telemetry.events.events)) == expected_events
        if mode == "trace":
            assert telemetry.tracer.spans
            assert _sha(spans_jsonl(telemetry.tracer.spans)) == expected_spans


class TestGoldenDigests:
    @pytest.mark.parametrize("target", ["open", "metadata"])
    def test_fig4_matches_prebatch_output(self, target):
        assert fig4_digest(target) == GOLDEN_DIGESTS[f"fig4:{target}"]

    @pytest.mark.parametrize("setup", ["baseline", "proportional"])
    def test_fig5_matches_prebatch_output(self, setup):
        assert fig5_digest(setup) == GOLDEN_DIGESTS[f"fig5:{setup}"]


# -- the drain tick's delivery -----------------------------------------------
# ``ReplayWorld._drain_stages`` drains every stage of a job into one list
# (``DataPlaneStage.drain_collect``), then delivers it, resolving the
# routing once per kind.  What it must equal: each stage drained and its
# grants delivered before the next stage drains, every grant routed by
# itself.  tests/experiments/test_fused_drain.py checks that over
# generated queues; the classes below pin the telemetry modes and the
# tick's calls.


def started_world(n_stages, channel_mode="per-class", telemetry=None):
    """A PADLL world whose one job has started (``n_stages`` stages,
    unlimited channels) and that has not run: tests fill and drain its
    channels by hand."""
    trace = OpTrace(_PER_OP_KINDS, np.full((2, 4), 600.0), sample_period=60.0)
    world = ReplayWorld(Setup.PADLL, telemetry=telemetry)
    world.add_job(
        JobSpec(
            job_id="job0",
            trace=trace,
            setup=Setup.PADLL,
            n_stages=n_stages,
            channel_mode=channel_mode,
        )
    )
    world._client = world.cluster.new_client()
    runtime = world._jobs["job0"]
    world._start_job(runtime)
    return world, runtime


def drain_each_stage(world, runtime, now):
    """The reference: drain stage by stage, deliver grant by grant."""
    client = world._client
    for stage in runtime.stages:
        grants = []
        stage.drain_collect(now, grants)
        for request in grants:
            count = request.count
            slot, cost, mds, mds_slot, aside = world._route(
                runtime, request.kind_hint, request.path, now
            )
            accumulated = runtime.window_buf[slot]
            if accumulated == 0.0:
                runtime.window_touched.append(slot)
            runtime.window_buf[slot] = accumulated + count
            runtime.delivered_total += count
            client.submitted_ops += count
            if mds is not None:
                batch = [mds_slot, count, cost, now]
                if request.trace is not None:
                    batch.append(request.trace)
                mds._queue.append(batch)
                mds._queued_units += cost * count
            elif aside is not None:
                aside(count)


def drain_state(world, runtime) -> str:
    """Everything a drain writes, as text (``repr`` keeps every float bit)."""
    channels = [
        (
            channel.channel_id,
            channel._backlog,
            channel.bucket._tokens,
            channel.bucket._timestamp,
            (channel.window_granted, channel.window_enqueued),
            [(r.op, r.count, r.submitted_at, r.kind_hint, r.trace) for r in channel._queue],
        )
        for stage in runtime.stages
        for channel in stage._channel_list
    ]
    cluster = world.cluster
    client = world._client
    return repr((
        channels,
        [(mds._queued_units, list(mds._queue)) for mds in cluster.mds_servers],
        (cluster._replay_buffer, world._undelivered, client.failed_ops),
        (runtime.window_buf, runtime.window_touched, runtime.delivered_total),
        client.submitted_ops,
    ))


#: (kind, op, path, count) rows of one replay tick, as the driver hands them.
_DRAIN_ROWS = [
    ("open", OperationType.OPEN, "/pfs/job0/f", 900.0),
    ("getattr", OperationType.STAT, "/pfs/job0/f", 2700.5),
    ("close", OperationType.CLOSE, "/pfs/job0/f", 901.25),
]


class TestDrainDeliveryObserved:
    """With metrics or tracing on, the memoised delivery exports what
    routing each grant by itself exports: the same histogram, counters,
    spans and MDS batches (a sampled record's context in the 5th slot)."""

    @pytest.mark.parametrize("trace", [False, True])
    def test_equals_per_grant_routing(self, trace):
        states = []
        for drain in (ReplayWorld._drain_stages, drain_each_stage):
            telemetry = Telemetry(TelemetryConfig(seed=0, sample_rate=0.25, trace=trace))
            world, runtime = started_world(3, telemetry=telemetry)
            for stage in runtime.stages:
                stage._channel_list[0].set_rate(700.0, 0.0)
            world._submit_stage_rows(runtime, runtime.stages, _DRAIN_ROWS, 4)
            for now in (0.0, 1.0, 2.5):
                drain(world, runtime, now)
            states.append((
                drain_state(world, runtime),
                prometheus_text(telemetry.registry),
                spans_jsonl(telemetry.tracer.spans) if trace else "",
            ))
        memoised, reference = states
        assert "padll_channel_queue_wait_seconds" in memoised[1]
        if trace:
            assert '"queue.wait"' in memoised[2]
        assert memoised == reference


def _python_calls(function, *args) -> Counter:
    """Code objects of the Python frames ``function(*args)`` enters,
    counted (identity, not ``co_qualname``, which is 3.11+; with the
    collector off: a gc callback is not the function's)."""
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    gc.disable()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestDrainTickCalls:
    """One drain tick drains each stage through its public verb and each
    channel through ``Channel.drain`` (the one grant loop), once; it
    enters the same Python frames whatever the number of queued records;
    only a split (one per channel at most) adds any, and the routing is
    resolved once per (job, kind), not per stage."""

    def _drain_tick_calls(self, interleave, rate, n_stages=4, channel_mode="per-class"):
        world, runtime = started_world(n_stages, channel_mode)
        for stage in runtime.stages:
            for channel in stage._channel_list:
                channel.set_rate(rate, 0.0)
        world._submit_stage_rows(runtime, runtime.stages, _DRAIN_ROWS, interleave)
        queued = sum(
            len(channel._queue)
            for stage in runtime.stages
            for channel in stage._channel_list
        )
        calls = _python_calls(world._drain_tick, 1.0)
        return queued, calls

    @pytest.mark.parametrize("channel_mode", ["per-class", "per-op"])
    @pytest.mark.parametrize("n_stages", [1, 3])
    def test_one_drain_per_channel(self, n_stages, channel_mode):
        # A per-op stage has a channel per trace kind, rows or not.
        n_channels = n_stages * (1 if channel_mode == "per-class" else len(_PER_OP_KINDS))
        _queued, calls = self._drain_tick_calls(4, 9_000.0, n_stages, channel_mode)
        assert calls[DataPlaneStage.drain_collect.__code__] == n_stages
        assert calls[Channel.drain.__code__] == n_channels
        assert calls[DataPlaneStage.drain.__code__] == 0

    @pytest.mark.parametrize("rate", [float("inf"), 9_000.0])
    def test_calls_do_not_grow_with_queued_records(self, rate):
        small_queued, small = self._drain_tick_calls(8, rate)
        large_queued, large = self._drain_tick_calls(16, rate)
        assert large_queued == 2 * small_queued == 2 * 4 * 8 * len(_DRAIN_ROWS)
        for calls in (small, large):
            splits = calls.pop(Request.split.__code__, 0)
            assert splits <= 4  # one channel per stage
            assert calls.pop(batch_request.__code__, 0) == 2 * splits
            if rate < float("inf"):
                assert splits == 4
        assert large == small
        assert small[ReplayWorld._route.__code__] == len(_DRAIN_ROWS)
