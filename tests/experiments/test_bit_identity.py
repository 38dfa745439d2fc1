"""Bit-identity regression tests for the batched replay pipeline.

PR "batch the end-to-end replay pipeline" rewired the replay hot path --
precomputed submission schedules, pooled request batches, fused
submit/drain delivery, interned monitoring windows -- under the contract
that fixed-seed experiment outputs stay *bit-identical*.  These tests pin
that contract down three ways:

1. ``TraceReplayer.schedule`` rows equal per-tick ``demand`` bit-for-bit;
2. SHA-256 digests of multi-stage, per-op, hierarchical and
   partly-unenforced worlds -- untraced, metrics-only and traced -- match
   values recorded on the per-request pipeline ``ReplayWorld`` used to
   carry beside the batched one;
3. SHA-256 digests of fixed-seed fig4/fig5 outputs match golden values
   recorded from the pre-batching implementation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.experiments.fig4 import run_fig4_metadata
from repro.experiments.fig5 import run_fig5
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.export import events_jsonl, spans_jsonl
from repro.workloads.abci import generate_mdt_trace
from repro.workloads.replayer import TraceReplayer

# SHA-256 digests of fixed-seed experiment outputs, recorded from the
# implementation *before* the batched replay pipeline landed.  Any change
# to these values means the refactor is no longer output-preserving.
GOLDEN_DIGESTS = {
    "fig4:open": "adce2b2749041e46df0f26096f40da931c192aebaa22224852a60f9e6c97fb62",
    "fig4:metadata": "6bd0d025551479a66c931cd6bbb3a3a298d67aeb61f46f0fd1c71822ee98bfa3",
    "fig5:baseline": "05a0cdfc7a75c6a46693e2be3da2ef5e10f1d75c43a298597a73886ca03e059d",
    "fig5:proportional": "142252ef1e7c71900cc5e59eae4c99d051c02793033db171ad19ca236523490d",
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
# telemetry mode, and the events must not depend on tracing.
ONE_PIPELINE_DIGESTS = {
    "4x4-per-class": (
        "61aa3938c9ad38b65927820c7805c6854efe7140931a87edc389e0b4598378e3",
        "32190cb6667bcffe3994ac828b3bac156a4d47633c6921c02316a5a9e87cfc7a",
        "b55f808f690018791eaae5728cdf114de6020c26da748f7b6b65e62a29501281",
    ),
    "3x2-per-op": (
        "faffd8bb8eb9ecf3b5f16b9c4b1da8c1a8d1cb2773c0dc151d636ad5a0ab96c8",
        "26125b8326c98667893785321b94d9dc677e6b4ba6f27dca70668c3a898364b8",
        "a83e5ed9073f1ad1ad03764cddea1b25ff217c9c1abd46576712ffd63b2af92f",
    ),
    "3x3-hier-split": (
        "4c97952dd159a1cf76730a8ce7648af98b7d2878472b5556d18aeded99da3d72",
        "7ba1d36416ce101cdd5df31eae414c183f1e51152b127a5cf7c510554d320eb1",
        "e012a8233fd215b67a4b0eda1e1160e9659b4f247a8af9fad50c73a23bb8e888",
    ),
    "rules-removed-1": (
        "e69bef94865380ec520030c375a003fe45754c29a0ca652e051977ff50acd473",
        "a951165f33c146c68e55656f386bf83efaf0be5bd68926c273428178d52eaec4",
        "af4701e9a7f1fcea57ffe42c535059555225ac9f2c964da3791ce32b78714a38",
    ),
    "rules-removed-3": (
        "d17ac786e2e5458f16bacc218459a82c1a795b8344a1c546e1ec5fb16798a4d6",
        "71e06da7486651b30a7aa98b197f640bcf336b7157f8bf8686b46b84e3ae305e",
        "afb705d0cd331e3f6dc71fcaa716aebbe9c6e8a7b20fdc50d34cd6051f8a7a6c",
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
    "3x3-hier-split": lambda t: _sharing_world(
        3, 3, t, hierarchical=True, placement="split"
    ),
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
