"""A ``control.cycle`` event is a row rendered on read, equal to the eager dict.

The control plane appends each cycle's inputs as a
:class:`~repro.core.controller.CycleEvent` row and renders ``fields``
when something reads it.  Here every world runs with the eager emitter
below -- the dict tree the plane used to build at each cycle, kept only
as the reference -- hooked beside the plane's own, and every row's
``fields``, read after the run has ended, must equal what that emitter
built at its cycle, down to the JSON bytes: worlds of stages registered in
process (each on its job's own local) and of racks (``job`` and
``split`` placement), with refused replies and health-paused ticks, the sharded world, whose rack replies are slice
views of the epoch's demand vector, and a threaded ``LiveControlLoop``.

The memory pin holds what a row costs: a return of the eager tree, or a
row that grows back towards it, fails here without a stopwatch.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import MIN_RATE, ProportionalSharing, StaticPartition
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    LocalController,
)
from repro.core.policies import ConstantRate, PolicyRule, RuleScope, SteppedRate
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.rpc import CollectStats
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.experiments import fig4
from repro.interpose.live_stage import LiveStage
from repro.interpose.loop import LiveControlLoop
from repro.simulation.sharded import ShardedConfig, ShardedSimulation
from repro.telemetry import Telemetry, TelemetryConfig

from tests.core.test_controller import make_stage
from tests.simulation.test_sharded import small_fluid


# -- the eager emitter (reference) ------------------------------------------------
def _eager_view(stats):
    """``_cycle_view`` as it was: the dict tree, built at the cycle."""
    return {
        local_id: {
            job_id: {"demand": demand, "n_stages": n_stages}
            for job_id, demand, n_stages in zip(
                agg.job_ids,
                np.asarray(agg.demand, dtype=np.float64).tolist(),
                agg.stage_counts,
            )
        }
        for local_id, agg in stats.items()
        if isinstance(agg, AggregateStats)
    }


def _eager_fields(plane, stats, cycle, policy_rates, paused, prev_rates):
    """``_emit_cycle`` as it was; returns ``(fields, rates)``, ``rates``
    being the next cycle's ``prev_rates``.  Reservations are read off the
    plane's jobs at the cycle, as the eager emitter read them."""
    demands = enforced = None
    if cycle is not None:
        job_ids, demand, _, rates = cycle
        if paused:
            enforced = {job_id: MIN_RATE for job_id in plane._jobs}
        else:
            jobs = plane._jobs
            demands = [
                (job_id, job_demand, jobs[job_id].reservation)
                for job_id, job_demand in zip(job_ids, demand.tolist())
            ]
            enforced = dict(zip(job_ids, rates.tolist()))
    rates = dict(enforced or {})
    for (job_id, channel_id), rate in policy_rates.items():
        rates[f"{job_id}:{channel_id}"] = rate
    deltas = {target: rate - prev_rates.get(target, 0.0) for target, rate in rates.items()}
    fields = dict(
        iteration=plane.loop_iterations,
        paused=paused,
        observed=_eager_view(stats),
        demand={job_id: d for job_id, d, _ in demands} if demands else {},
        reservations={job_id: r for job_id, _, r in demands} if demands else {},
        algorithm=type(plane.algorithm).__name__ if plane.algorithm else None,
        rates=dict(enforced or {}),
        policy_rates={
            f"{job_id}:{channel_id}": rate
            for (job_id, channel_id), rate in policy_rates.items()
        },
        deltas=deltas,
    )
    return fields, rates


def record_eager(plane):
    """Hook the eager emitter beside ``plane``'s: the returned list gets
    ``(time, fields)`` of every cycle, built as the cycle emits."""
    built = []
    prev = [{}]
    emit = plane._emit_cycle

    def both(telemetry, now, stats, cycle, policy_rates, paused):
        fields, prev[0] = _eager_fields(plane, stats, cycle, policy_rates, paused, prev[0])
        built.append((now, json.dumps(fields)))
        emit(telemetry, now, stats, cycle, policy_rates, paused)

    plane._emit_cycle = both
    return built


def assert_rows_render_eager(telemetry, built):
    rows = list(telemetry.events.of_kind("control.cycle"))
    assert len(rows) == len(built) > 0
    for row, (now, eager) in zip(rows, built):
        assert row.time == now
        assert json.dumps(row.fields) == eager
        assert row.fields == json.loads(eager)
    return rows


# -- worlds --------------------------------------------------------------------------
def _window(job_id, enqueued, backlog, granted, span=1.0):
    return StageStats(
        job_id,
        span,
        (
            ChannelSnapshot("metadata", granted, enqueued, backlog, 100.0),
            ChannelSnapshot("data", granted / 2, enqueued / 3, 0.0, math.inf),
        ),
    )


_loads = st.lists(
    st.tuples(
        st.floats(0.0, 500.0), st.floats(0.0, 50.0), st.floats(0.0, 400.0)
    ),
    min_size=1,
    max_size=3,
)
_scripts = st.fixed_dictionaries(
    {
        "n_jobs": st.integers(1, 4),
        "ticks": st.integers(2, 8),
        "loads": _loads,
        "paused": st.sets(st.integers(0, 7), max_size=3),
        "hostile": st.sets(st.integers(0, 7), max_size=3),
        "reserve_at": st.integers(0, 8),
        "reservation": st.one_of(st.integers(0, 300), st.floats(0.0, 300.0)),
        "policy": st.booleans(),
        "algorithm": st.sampled_from(["proportional", "static", None]),
    }
)


def _algorithm(name):
    if name == "proportional":
        return ProportionalSharing(capacity=1000.0)
    if name == "static":
        return StaticPartition(rate_per_job=150.0)
    return None


def _install_policy(plane):
    plane.install_policy(
        PolicyRule(
            "cap",
            RuleScope("metadata", job_id="job0"),
            SteppedRate([(0.0, 400.0), (3.0, 90.0)]),
        )
    )
    plane.install_policy(PolicyRule("floor", RuleScope("data"), ConstantRate(75.0)))


def _drive(plane, script, tick):
    """Tick ``plane`` through ``script``: pauses, a mid-run reservation."""
    pause = set(script["paused"])
    plane.health_probe = lambda: plane.loop_iterations - 1 not in pause
    for t in range(script["ticks"]):
        if t == script["reserve_at"]:
            plane.set_reservation("job0", script["reservation"])
        tick(t)
        plane.tick(float(t))


def assert_refusals(telemetry, script):
    """A vetting plane (one with an algorithm) refused the hostile reply
    on every tick the script names."""
    hostile = set(script["hostile"]) & set(range(script["ticks"]))
    refused = list(telemetry.events.of_kind("control.reply_refused"))
    assert len(refused) == (len(hostile) if script["algorithm"] is not None else 0)


@settings(max_examples=60, deadline=None)
@given(_scripts)
def test_flat_rows_render_what_the_eager_emitter_built(script):
    """Scripted stage windows, each stage on its job's own local; a
    hostile stage's non-finite window folds into its local's reply, which
    is refused on the ticks the script names, and is then a miss."""
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(algorithm=_algorithm(script["algorithm"]), telemetry=telemetry)
    clock = [0]
    loads = script["loads"]

    def handler(job_id, k):
        def handle(message):
            if not isinstance(message, CollectStats):
                return None
            if job_id == "bad" and clock[0] in script["hostile"]:
                return _window(job_id, math.inf, 0.0, 0.0)
            enqueued, backlog, granted = loads[(clock[0] + k) % len(loads)]
            return _window(job_id, enqueued, backlog, granted)

        return handle

    for k in range(script["n_jobs"]):
        plane.register_endpoint(StageIdentity(f"s{k}", f"job{k}"), handler(f"job{k}", k))
    plane.register_endpoint(StageIdentity("sbad", "bad"), handler("bad", 0))
    if script["policy"]:
        _install_policy(plane)
    built = record_eager(plane)

    def tick(t):
        clock[0] = t

    _drive(plane, script, tick)
    assert_rows_render_eager(telemetry, built)
    assert_refusals(telemetry, script)


def _hierarchical_world(script, placement, telemetry):
    plane = ControlPlane(
        algorithm=_algorithm(script["algorithm"]), telemetry=telemetry
    )
    racks = [LocalController(f"rack{r}") for r in range(3)]
    for rack in racks:
        plane.attach_local(rack.local_id, rack.handle)
    stages = []
    for j in range(script["n_jobs"]):
        for s in range(2):
            rack = racks[(j if placement == "job" else s) % len(racks)]
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            rack.register(stage)
            plane.register_stage(stage.identity, rack.local_id)
            stages.append(stage)
    return plane, stages


@settings(max_examples=40, deadline=None)
@given(_scripts, st.sampled_from(["job", "split"]))
def test_hierarchical_rows_render_what_the_eager_emitter_built(script, placement):
    """Real stages under local controllers; a rogue local reports a job
    it does not host on the ticks the script names, and is refused."""
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane, stages = _hierarchical_world(script, placement, telemetry)
    clock = [0]

    def rogue(message):
        if isinstance(message, CollectAggregate):
            if clock[0] in script["hostile"]:
                return AggregateStats(("job0",), (5000.0,), (1,))
            return AggregateStats((), (), ())
        return True

    plane.attach_local("rogue", rogue)
    if script["policy"]:
        _install_policy(plane)
    built = record_eager(plane)
    loads = script["loads"]

    def tick(t):
        clock[0] = t
        for i, stage in enumerate(stages):
            count = 1.0 + loads[(t + i) % len(loads)][0]
            stage.submit(Request(OperationType.OPEN, path="/f", count=count), float(t))

    _drive(plane, script, tick)
    assert_rows_render_eager(telemetry, built)
    assert_refusals(telemetry, script)


@pytest.mark.parametrize("placement", ["job", "split"])
def test_sharded_rows_hold_copies_of_the_epoch_vector(placement):
    """A sharded rack's reply is a slice view of the epoch's demand
    vector; the row holds a copy, so it neither reads another epoch's
    demand nor keeps the whole vector alive, paused epochs and policy
    pushes included."""
    telemetry = Telemetry(TelemetryConfig(trace=False))
    config = ShardedConfig(
        n_racks=4, n_jobs=6, stages_per_job=3, placement=placement,
        loop_interval=1.0, fluid=small_fluid(),
    )
    sim = ShardedSimulation(
        config, algorithm=ProportionalSharing(capacity=150.0), telemetry=telemetry
    )
    plane = sim.control_plane
    _install_policy(plane)
    plane.health_probe = lambda: plane.loop_iterations not in (4, 5)
    built = record_eager(plane)
    sim.run(12.0)
    sim.finish()
    rows = assert_rows_render_eager(telemetry, built)
    for row in rows:
        aggregates = row.observed[1::2]
        assert aggregates and all(agg.demand.base is None for agg in aggregates)
    assert sum(row.fields["paused"] for row in rows) == 2


def test_live_loop_rows_render_what_the_eager_emitter_built():
    """A threaded loop over live stages admitting calls while it ticks."""
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(
        config=ControlPlaneConfig(loop_interval=0.01),
        algorithm=ProportionalSharing(capacity=5000.0),
        telemetry=telemetry,
    )
    stages = []
    for k in range(3):
        stage = LiveStage(StageIdentity(f"ls{k}", f"job{k}"))
        stage.create_channel("metadata")
        stage.add_classifier_rule(
            ClassifierRule("md", "metadata", op_classes=frozenset({OperationClass.METADATA}))
        )
        plane.register(stage)
        stages.append(stage)
    _install_policy(plane)
    plane.health_probe = lambda: plane.loop_iterations % 7 != 3
    built = record_eager(plane)
    stop = threading.Event()

    def admit():
        while not stop.is_set():
            for stage in stages:
                stage.admit(OperationType.STAT, "/pfs/f", stop=stop)

    worker = threading.Thread(target=admit, name="padll-test-admit")
    loop = LiveControlLoop(plane)
    worker.start()
    loop.start()
    try:
        deadline = time.monotonic() + 10.0
        while plane.loop_iterations < 15 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        loop.stop()
        stop.set()
        worker.join(5.0)
    assert not worker.is_alive()
    rows = assert_rows_render_eager(telemetry, built)
    assert len(rows) >= 15
    assert any(row.fields["paused"] for row in rows)


# -- the row as an event ---------------------------------------------------------------
def _one_row():
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(algorithm=ProportionalSharing(capacity=100.0), telemetry=telemetry)
    plane.register(make_stage("s0", "job0"))
    plane.tick(1.0)
    (row,) = telemetry.events.events
    return row


def test_a_field_no_row_carries_is_answered_without_rendering(monkeypatch):
    row = _one_row()
    monkeypatch.setattr(type(row), "render", lambda self: pytest.fail("rendered"))
    assert row.field("job") is None
    assert row.field("stage", "none") == "none"


# -- what a row costs --------------------------------------------------------------------
#: Bytes the ``control.cycle`` events of one fixed-seed traced Fig. 4
#: ``open`` world (3 setups x 421 cycles) keep alive, per cycle: what
#: freeing them returns to tracemalloc.  The eager dict tree kept 1 244
#: per cycle (baseline 751, passthrough 1 312, PADLL 1 669); a row keeps
#: about 415.
EAGER_BYTES_PER_CYCLE = 1244
ROW_BOUND = 0.40 * EAGER_BYTES_PER_CYCLE


def test_a_cycle_row_keeps_at_most_two_fifths_of_the_eager_tree():
    spines = []

    def factory(_setup):
        spines.append(Telemetry(TelemetryConfig(seed=0, sample_rate=0.01, trace=True)))
        return spines[-1]

    gc.collect()
    tracemalloc.start()
    try:
        fig4.run_fig4_metadata(
            "open", seed=0, duration=360.0, step_period=120.0, drain_tail=60.0,
            telemetry_factory=factory,
        )
        gc.collect()
        retained = cycles = 0
        for telemetry in spines:
            events = telemetry.events.events
            before = tracemalloc.get_traced_memory()[0]
            kept = [event for event in events if event.kind != "control.cycle"]
            cycles += len(events) - len(kept)
            events[:] = kept
            gc.collect()
            retained += before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cycles == 3 * 421
    assert retained / cycles <= ROW_BOUND
