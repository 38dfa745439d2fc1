"""Stage-host worker and supervisor units.

The live multi-process path (spawn, SIGKILL, takeover) is exercised
end-to-end by the CI serve smoke; these tests pin the pieces in
isolation: the round-robin partitioner, the host's validation and
registration/telemetry protocol against a real listening transport,
and the supervisor's argv construction and bookkeeping (without
spawning actual children).
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
import types

import pytest

from repro.core.config import parse_config
from repro.core.fabric import LinkProfile
from repro.core.requests import OperationType
from repro.core.hierarchy import CollectAggregate
from repro.core.rpc import CollectStats
from repro.core.stage import OrphanPolicy, StageIdentity
from repro.core.wire import decode_payload, encode_payload
from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.net import RemoteEndpoint, SocketTransport
from repro.service.config import ServiceConfig, WorkloadSpec, job_of
from repro.service.hosts import HostSupervisor, partition_stages
from repro.service import runtime as runtime_module
from repro.service.runtime import ServiceRuntime
from repro.service import stagehost
from repro.service.stagehost import (
    LAYOUT_ADDRESS,
    StageHost,
    StageLayout,
    read_push,
    register_push,
    sampling_push,
    telemetry_push,
)
from repro.telemetry.events import Event
from repro.telemetry.trace import Span, Tracer


@pytest.fixture(autouse=True)
def _fast_pushes(monkeypatch):
    """Hosts here push every 50 ms instead of every half second."""
    monkeypatch.setattr(stagehost, "PUSH_INTERVAL", 0.05)


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestPartitionStages:
    def test_round_robin(self):
        buckets = partition_stages(jobs=2, stages_per_job=3, stage_procs=2)
        assert buckets == [
            ["job0/s0", "job0/s2", "job1/s1"],
            ["job0/s1", "job1/s0", "job1/s2"],
        ]

    def test_single_proc_gets_everything(self):
        buckets = partition_stages(jobs=2, stages_per_job=2, stage_procs=1)
        assert buckets == [["job0/s0", "job0/s1", "job1/s0", "job1/s1"]]

    def test_empty_buckets_dropped(self):
        # More hosts than stages: nobody supervises an idle process.
        buckets = partition_stages(jobs=1, stages_per_job=2, stage_procs=5)
        assert buckets == [["job0/s0"], ["job0/s1"]]

    def test_rejects_zero_procs(self):
        with pytest.raises(ConfigError, match="stage proc"):
            partition_stages(jobs=1, stages_per_job=1, stage_procs=0)

    def test_job_of_convention(self):
        assert job_of("job0/s1") == "job0"
        assert job_of("solo") == "solo"


class TestStageHostValidation:
    def test_needs_host_id(self):
        with pytest.raises(ConfigError, match="host id"):
            StageHost("", ["job0/s0"])

    def test_needs_stages(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            StageHost("host0", [])


#: The default world's layout with no workload driver (``rate=0``).
_DEFAULT_LAYOUT = StageLayout.from_config(
    ServiceConfig(workload=WorkloadSpec(rate=0.0))
).to_wire()


class _Telemetry:
    """One telemetry push as :func:`read_push` hands it over."""

    def __init__(self, peer, metrics, events, spans, workload):
        self.peer = peer
        self.metrics = metrics
        self.events = events
        self.spans = spans
        self.workload = workload


class _Controller:
    """A listening controller-side transport reading pushes through
    :func:`read_push`, each with the name its connection's HELLO carried.

    Answers the layout request with ``layout`` (``None`` binds nothing).
    """

    def __init__(self, layout=_DEFAULT_LAYOUT):
        self.transport = SocketTransport()
        if layout is not None:
            self.transport.bind(LAYOUT_ADDRESS, lambda _: layout)
        self.accepted = []
        #: ``(peer, identity)`` per register push.
        self.registered = []
        self.telemetry = []
        self._seen = threading.Event()
        self.host, self.port = self.transport.listen(
            "127.0.0.1",
            0,
            on_connect=self._on_connect,
            on_push=self._on_push,
        )

    def _on_connect(self, connection):
        self.accepted.append(connection)
        self._seen.set()

    def _on_push(self, connection, doc):
        read_push(
            doc,
            register=lambda identity: self.registered.append(
                (connection.peer, identity)
            ),
            telemetry=lambda *push: self.telemetry.append(
                _Telemetry(connection.peer, *push)
            ),
        )

    def wait_connected(self, timeout=5.0):
        assert self._seen.wait(timeout), "host never dialed in"
        return self.accepted[-1]

    def close(self):
        self.transport.close()


@pytest.fixture()
def controller():
    c = _Controller()
    yield c
    c.close()


class TestStageHostLive:
    def test_registers_then_pushes_telemetry(self, controller):
        host = StageHost(
            "hostA",
            ["job0/s0", "job1/s0"],
            seed=7,
        )
        try:
            host.start(controller.host, controller.port)
            connection = controller.wait_connected()
            # The host's name is its HELLO's; no push repeats it.
            assert connection.peer == "hostA"
            assert _wait(lambda: len(controller.registered) == 2)
            assert {
                identity.stage_id for _, identity in controller.registered
            } == {"job0/s0", "job1/s0"}
            for peer, identity in controller.registered:
                assert peer == "hostA"
                assert identity.job_id == job_of(identity.stage_id)
                assert identity.pid > 0
            # The pump ships counters periodically without being asked.
            assert _wait(lambda: controller.telemetry)
            push = controller.telemetry[0]
            assert push.peer == "hostA"
            assert push.workload is None  # no driver configured
            # The controller can call back over the reverse tunnel: the
            # host is one local controller at the address its name gives.
            for address in ("hostA", "job0/s0"):
                controller.transport.bind(address, RemoteEndpoint(connection, address, None))
            aggregate = controller.transport.call(
                "hostA", CollectAggregate(now=host.clock(), channel="metadata",
                                          loop_interval=1.0),
            )
            assert aggregate.job_ids == ("job0", "job1")
            assert aggregate.stage_counts == (1, 1)
            with pytest.raises(StageNotRegistered):  # no stage has an address
                controller.transport.call("job0/s0", CollectStats(now=host.clock()))
        finally:
            host.stop()

    def test_run_returns_zero_on_orderly_stop(self, controller):
        host = StageHost("hostB", ["job0/s0"])
        host.start(controller.host, controller.port)
        controller.wait_connected()
        host.request_stop()
        assert host.run() == 0

    def test_run_returns_one_when_link_dies(self, controller):
        host = StageHost("hostC", ["job0/s0"])
        host.start(controller.host, controller.port)
        connection = controller.wait_connected()
        connection.close(reason="controller going away")
        assert _wait(lambda: host.disconnected)
        assert host.run() == 1

    def test_duration_elapse_is_orderly(self, controller):
        host = StageHost("hostD", ["job0/s0"])
        host.start(controller.host, controller.port)
        controller.wait_connected()
        assert host.run(duration=0.1) == 0

    def test_workload_counters_travel(self):
        # The workload rides the layout: the controller says what drives
        # a host's stages, as it says what they look like.
        workload = WorkloadSpec(jobs=1, stages_per_job=1, rate=200.0)
        controller = _Controller(
            layout=StageLayout.from_config(ServiceConfig(workload=workload)).to_wire()
        )
        host = StageHost("hostE", ["job0/s0"])
        try:
            host.start(controller.host, controller.port)
            controller.wait_connected()
            assert _wait(
                lambda: any(push.workload for push in controller.telemetry)
            )
            assert host.workload.spec == workload
        finally:
            host.stop()
            controller.close()
        push = next(push for push in controller.telemetry if push.workload)
        assert push.workload["threads"] == 1
        assert push.workload["submitted"] >= push.workload["admitted"] >= 0


def _proc_config(**kwargs):
    defaults = dict(
        port=0,
        seed=3,
        stage_procs=2,
        workload=WorkloadSpec(jobs=2, stages_per_job=2, rate=50.0),
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestHostSupervisor:
    def test_requires_stage_procs(self):
        with pytest.raises(ConfigError, match="stage_procs >= 1"):
            HostSupervisor(_proc_config(stage_procs=0), "127.0.0.1", 4321)

    def test_argv_covers_partition(self):
        supervisor = HostSupervisor(
            _proc_config(), "127.0.0.1", 4321
        )
        records = supervisor.records
        assert sorted(records) == ["host0", "host1"]
        assert all(record.process is None for record in records.values())
        argvs = {name: record.argv for name, record in records.items()}
        stages = []
        for host_id, argv in argvs.items():
            assert argv[argv.index("--connect") + 1] == "127.0.0.1:4321"
            assert argv[argv.index("--host-id") + 1] == host_id
            stages.extend(argv[argv.index("--stages") + 1].split(","))
            # argv says what a process knows about itself -- four flags;
            # what its stages look like and the workload that drives them
            # come from the controller's layout.
            flags = [arg for arg in argv if arg.startswith("--")]
            assert flags == ["--connect", "--host-id", "--stages", "--seed"]
        # Every stage in the world is owned by exactly one host.
        assert sorted(stages) == sorted(
            s
            for bucket in partition_stages(2, 2, 2)
            for s in bucket
        )

    def test_per_host_seeds_differ(self):
        supervisor = HostSupervisor(
            _proc_config(), "127.0.0.1", 4321
        )
        seeds = set()
        for record in supervisor.records.values():
            argv = record.argv
            seeds.add(argv[argv.index("--seed") + 1])
        assert len(seeds) == 2

    def test_counters_before_start(self):
        supervisor = HostSupervisor(
            _proc_config(), "127.0.0.1", 4321
        )
        assert supervisor.counters() == {
            "hosts": 2,
            "alive": 0,
            "restarts": 0,
        }


_TWO_CHANNELS = {
    "pfs_mounts": ["/lustre"],
    "channels": [
        {"id": "metadata", "classes": ["metadata", "dir_mgmt"]},
        {"id": "opens", "ops": ["open"], "priority": 10, "initial_rate": 40.0},
    ],
}


def _layout_config(**kwargs):
    return _proc_config(
        workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=0.0),
        orphan=OrphanPolicy(mode="decay", floor=2.0, half_life=5.0),
        padll=parse_config(_TWO_CHANNELS),
        **kwargs,
    )


def _dial(runtime, host_id="host0", **kwargs):
    """A StageHost over every stage of ``runtime``'s world, dialed in-process
    (the runtime is not started, so nothing spawns a child and wire-originated
    registrations apply inline)."""
    spec = runtime.config.workload
    stage_ids = partition_stages(spec.jobs, spec.stages_per_job, 1)[0]
    host = StageHost(host_id, stage_ids, **kwargs)
    host.start(*runtime.control_address)
    assert _wait(lambda: len(runtime.controller.stages) == len(stage_ids))
    return host


class TestOneLayout:
    """One config, one builder: a stage is the same stage wherever it runs."""

    def test_in_process_and_remote_stages_are_built_alike(self):
        local = ServiceRuntime(_layout_config(stage_procs=0, trace=False))
        remote = ServiceRuntime(_layout_config(stage_procs=1, trace=False))
        host = None
        try:
            host = _dial(remote)
            assert host.telemetry.tracer is None  # trace: false reached the host
            assert [s.identity.stage_id for s in host.stages] == [
                s.identity.stage_id for s in local.stages
            ]
            for here, there in zip(local.stages, host.stages):
                assert list(there.channels) == list(here.channels) == [
                    "metadata", "opens"
                ]
                assert there.classifier.rules == here.classifier.rules
                assert there.classifier.pfs_mounts == here.classifier.pfs_mounts
                assert there.classifier.pfs_mounts == ("/lustre",)
                assert there._orphan_policy == here._orphan_policy
                assert there._orphan_policy.mode == "decay"
                assert there.channel_rate("opens") == here.channel_rate("opens") == 40.0
                job = here.identity.job_id
                for path, channel in (("/lustre/a/f", "opens"), ("/tmp/a/f", None)):
                    decision = there.classifier.decide(OperationType.OPEN, job, path)
                    assert decision == here.classifier.decide(
                        OperationType.OPEN, job, path
                    )
                    assert decision.channel_id == channel
        finally:
            if host is not None:
                host.stop()
            remote.stop()
            local.stop()

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"orphan": OrphanPolicy(mode="decay")}, "orphan"),
            (
                {"padll": parse_config(
                    {"channels": [{"id": "metadata", "classes": ["metadata"]}]}
                )},
                "padll.channels",
            ),
            ({"padll": parse_config({"pfs_mounts": ["/lustre"]})}, "padll.pfs_mounts"),
            (
                {"workload": WorkloadSpec(
                    jobs=1, stages_per_job=3, rate=7.5, ops=("stat",),
                    path_prefix="/lustre/x",
                )},
                "workload",
            ),
        ],
    )
    def test_setting_travels(self, kwargs, named):
        """The three per-stage settings PR 21 refused under ``stage_procs > 0``
        (argv could not carry them): each constructs now, and is what a
        dialing host is answered with."""
        runtime = ServiceRuntime(_proc_config(**kwargs))
        try:
            layout = StageLayout.from_wire(runtime.transport.call(LAYOUT_ADDRESS, "h"))
        finally:
            runtime.stop()
        assert layout == StageLayout.from_config(_proc_config(**kwargs))
        if named == "orphan":
            assert layout.orphan == kwargs["orphan"]
        elif named == "workload":
            assert layout.workload == kwargs["workload"]
        elif named == "padll.channels":
            assert [spec.rule.name for spec in layout.channels] == ["metadata-rule"]
        else:
            assert layout.pfs_mounts == ("/lustre",)

    def test_controller_side_settings_still_accepted(self):
        padll = parse_config(
            {
                "policies": [
                    {"name": "cap", "channel": "metadata",
                     "schedule": {"type": "constant", "rate": 50.0}}
                ],
                "algorithm": {"type": "proportional", "capacity": 500},
            }
        )
        runtime = ServiceRuntime(_proc_config(padll=padll))
        try:
            assert "cap" in runtime.controller.policies
            assert runtime.control_address is not None
        finally:
            runtime.stop()

    def test_controller_lag_applies_to_remote_stages(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            runtime_module, "time", types.SimpleNamespace(sleep=sleeps.append)
        )
        runtime = ServiceRuntime(
            _layout_config(stage_procs=2, faults=LinkProfile(latency=0.05))
        )
        hosts = []
        try:
            for index in range(2):
                hosts.append(StageHost(f"host{index}", [f"job{index}/s0"]))
                hosts[-1].start(*runtime.control_address)
            assert _wait(lambda: len(runtime.controller.stages) == 2)
            runtime.controller.tick(hosts[0].clock())
            # Two hosts, one collect and one enforce batch each: the lag
            # is drawn per host request, not per stage.
            assert sleeps == [0.05] * 4
        finally:
            for host in hosts:
                host.stop()
            runtime.stop()

    @pytest.mark.parametrize(
        "layout", [None, "garbage", ((), ("/pfs",), None, 0.05, True)]
    )
    def test_host_without_a_layout_fails_naming_it(self, layout):
        controller = _Controller(layout=layout)
        try:
            host = StageHost("hostX", ["job0/s0"])
            with pytest.raises(ConfigError, match="padll/layout"):
                host.start(controller.host, controller.port)
            assert host.stages == []
        finally:
            controller.close()

    def test_stage_host_process_exits_one_naming_the_layout(self):
        controller = _Controller(layout=None)
        try:
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "stage-host",
                    "--connect", f"{controller.host}:{controller.port}",
                    "--host-id", "hostY", "--stages", "job0/s0",
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            controller.close()
        assert result.returncode == 1, result.stdout + result.stderr
        assert "padll/layout" in result.stdout


class _ManualClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


class TestDefaultChannel:
    def test_every_op_of_the_default_workload_is_enforced(self):
        # With no policy document the service's one channel catches every
        # MDS-bound class -- getxattr included, as in the replay harness.
        config = ServiceConfig(workload=WorkloadSpec(rate=0.0))
        runtime = ServiceRuntime(config)
        try:
            assert runtime.stages
            for stage in runtime.stages:
                job = stage.identity.job_id
                path = f"{config.workload.path_prefix}/{job}/f1"
                for name in config.workload.ops:
                    decision = stage.classifier.decide(OperationType(name), job, path)
                    assert decision.channel_id == config.channel, name
        finally:
            runtime.stop()


class TestOrphanThresholdIsTheLoopInterval:
    """A stage orphans after ``orphan_after`` of the service's own loop
    intervals -- in process, and when built from the ``padll/layout``
    reply -- so a healthy loop with a long period never orphans one."""

    @pytest.mark.parametrize("stage_procs", [0, 1], ids=["in-process", "layout"])
    def test_healthy_slow_loop_never_orphans(self, stage_procs):
        clock = _ManualClock()
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=stage_procs,
                interval=4.0,
                trace=False,
                workload=WorkloadSpec(jobs=1, stages_per_job=2, rate=0.0),
                orphan=OrphanPolicy(orphan_after=3, mode="decay"),
            ),
            clock,
        )
        host = None
        try:
            if stage_procs:
                host = _dial(runtime, clock=clock)
                stages = host.stages
            else:
                stages = runtime.stages
            assert len(stages) == 2
            no_wait = threading.Event()
            no_wait.set()  # admit never blocks on the manual clock
            for _ in range(10):
                clock.t += runtime.config.interval
                for stage in stages:
                    stage.admit(OperationType.OPEN, "/pfs/f", stop=no_wait)
                runtime.controller.tick(clock.t)
            assert runtime.controller.collect_failures == 0
            for stage in stages:
                assert stage.channel_rate("metadata") != float("inf")  # enforced
                assert stage.orphan_transitions == 0
        finally:
            if host is not None:
                host.stop()
            runtime.stop()


class TestSamplingReachesHosts:
    def test_admin_sampling_rate_is_pushed_to_every_host(self):
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=1,
                sample_rate=0.0,
                workload=WorkloadSpec(jobs=1, stages_per_job=1, rate=400.0),
            )
        )
        host = late = None
        try:
            host = _dial(runtime)
            assert host.telemetry.tracer.sample_rate == 0.0
            result = runtime.admin("telemetry.sampling", {"rate": 1.0})
            assert result["applied"] is True
            assert _wait(lambda: host.telemetry.tracer.sample_rate == 1.0)
            # ... and the spans the host now samples arrive with its pushes.
            assert _wait(lambda: len(runtime.telemetry.tracer.spans) > 0)
            # A host that dials afterwards starts at the rate in force.
            late = StageHost("host1", ["job9/s0"])
            late.start(*runtime.control_address)
            assert late.telemetry.tracer.sample_rate == 1.0
        finally:
            for h in (host, late):
                if h is not None:
                    h.stop()
            runtime.stop()


class _Link:
    """Stands in for an accepted connection: the name its HELLO carried."""

    def __init__(self, peer):
        self.peer = peer


def _telemetry(value, workload=None):
    """One host's telemetry push: its stage's throttled-ops absolute."""
    metrics = [
        ["padll_live_throttled_ops_total", [["stage", "job0/s0"]], "counter", value]
    ]
    return telemetry_push(metrics, [], [], workload)


class TestRestartedHostCounters:
    def test_new_connection_counts_from_zero_and_old_keys_go(self):
        runtime = ServiceRuntime(_proc_config(stage_procs=1))
        try:
            record = runtime.hosts.records["host0"]
            first, second = _Link("host0"), _Link("host0")
            runtime._on_wire_push(first, _telemetry(30.0))
            runtime._on_wire_close(first)
            assert record.connection is None
            # The respawned process has already passed its predecessor's total.
            runtime._on_wire_push(second, _telemetry(60.0))
            counter = runtime.telemetry.registry.counter(
                "padll_live_throttled_ops_total", stage="job0/s0"
            )
            assert counter.value == 90.0
            runtime._on_wire_push(second, _telemetry(75.0))
            assert counter.value == 105.0
            assert record.connection is second
            pushes = runtime.telemetry.registry.counter(
                "padll_remote_pushes_total", host="host0"
            )
            assert pushes.value == 3
        finally:
            runtime.stop()


class TestPushDocuments:
    """stagehost owns the push documents: one builder per kind, one reader."""

    def _read(self, doc):
        got = []
        read_push(
            decode_payload(encode_payload(doc)),  # as the wire hands it over
            register=lambda *body: got.append(("register", body)),
            telemetry=lambda *body: got.append(("telemetry", body)),
            sampling=lambda *body: got.append(("sampling", body)),
        )
        return got

    def test_round_trip(self):
        identity = StageIdentity("job0/s0", "job0", hostname="n1", pid=42)
        assert self._read(register_push(identity)) == [("register", (identity,))]
        assert self._read(sampling_push(0.25)) == [("sampling", (0.25,))]
        metrics = [["padll_x_total", [["stage", "job0/s0"]], "counter", 3.0]]
        event = Event("stage.adopted", 4.0, {"stage": "job0/s0"})
        span = Span("t1", "admit", 1.0, 1.5, {"stage": "job0/s0"})
        workload = {"threads": 1, "submitted": 9, "admitted": 7}
        [(kind, body)] = self._read(telemetry_push(metrics, [event], [span], workload))
        assert kind == "telemetry"
        got_metrics, (got_event,), (got_span,), got_workload = body
        assert got_metrics == metrics
        assert got_event.to_dict() == event.to_dict()
        assert got_span.to_dict() == span.to_dict()
        assert got_workload == workload

    def test_no_document_names_its_host(self):
        identity = StageIdentity("job0/s0", "job0")
        for doc in (
            register_push(identity),
            telemetry_push([], [], [], None),
            sampling_push(1.0),
        ):
            assert set(doc) & {"host", "address"} == set()

    @pytest.mark.parametrize(
        "doc", ["garbage", None, [1, 2], {"kind": "bogus"}, {"kind": ["register"]}]
    )
    def test_hostile_documents_are_ignored(self, doc):
        runtime = ServiceRuntime(_proc_config(stage_procs=1))
        try:
            events = len(runtime.telemetry.events.events)
            runtime._on_wire_push(_Link("host0"), doc)
            assert len(runtime.telemetry.events.events) == events
            assert runtime.hosts.records["host0"].connection is None
        finally:
            runtime.stop()

    def test_missing_identity_is_refused_naming_the_hello(self):
        runtime = ServiceRuntime(_proc_config(stage_procs=1))
        try:
            runtime._on_wire_push(_Link("host7"), {"kind": "register"})
            (event,) = runtime.telemetry.events.of_kind("host.register_refused")
            assert event.fields == {
                "host": "host7", "reason": "missing stage identity"
            }
            assert runtime.controller.stages == {}
        finally:
            runtime.stop()


class TestWorkloadCountsConnectedHosts:
    def test_a_closed_hosts_counters_leave_the_snapshot(self):
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=2, workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=50.0)
            )
        )
        hosts = []
        try:
            for index in range(2):
                host = StageHost(f"host{index}", [f"job{index}/s0"])
                hosts.append(host)
                host.start(*runtime.control_address)
                assert _wait(lambda: len(runtime.controller.stages) == index + 1)

            def threads():
                return runtime.snapshot().get("workload", {}).get("threads")

            assert _wait(lambda: threads() == 2)
            hosts[0].stop()  # its final push lands, then its connection closes
            assert _wait(lambda: "job0" not in runtime.controller.jobs)
            assert _wait(lambda: threads() == 1)
            hosts[1].stop()
            assert _wait(lambda: threads() is None)
        finally:
            for host in hosts:
                host.stop()
            runtime.stop()


class TestHostKeepsOnlyWhatItHasNotShipped:
    """A push deletes what it shipped; the controller ends up with all of it."""

    def test_lists_stay_short_under_load_and_everything_arrives_once(self, monkeypatch):
        emitted = []
        emit_span = Tracer.emit_span

        def counting(self, ctx, *args, **attrs):
            emitted.append(ctx.trace_id)  # only a host's stage emits spans here
            emit_span(self, ctx, *args, **attrs)

        monkeypatch.setattr(Tracer, "emit_span", counting)
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=1,
                sample_rate=1.0,
                workload=WorkloadSpec(jobs=1, stages_per_job=1, rate=400.0),
            )
        )
        host = None
        try:
            host = _dial(runtime)
            for marker in range(20):  # host events, spread over several pushes
                host.telemetry.events.emit("test.marker", float(marker), n=marker)
                time.sleep(0.01)
            assert _wait(lambda: host.pushes >= 5 and len(emitted) >= 50)
            # Five pushes in, the host holds a push interval's worth, not history.
            assert len(host.telemetry.tracer.spans) < len(emitted) / 2
            host.stop()  # drivers and pump joined, then one final flush
            assert host.telemetry.tracer.spans == []
            assert host.telemetry.events.events == []
            # The controller applies a push on its loop thread, after the
            # reader thread has queued it: wait for the final one.
            merged_spans = runtime.telemetry.tracer.spans
            assert _wait(lambda: len(merged_spans) >= len(emitted))
            merged = [span.trace_id for span in merged_spans]
            assert merged == emitted
            markers = [e.fields["n"] for e in runtime.telemetry.events.of_kind("test.marker")]
            assert markers == list(range(20))
        finally:
            if host is not None:
                host.stop()
            runtime.stop()

    def test_a_failed_push_leaves_the_lists_whole(self, controller, monkeypatch):
        monkeypatch.setattr(stagehost, "PUSH_INTERVAL", 60.0)
        host = StageHost("hostF", ["job0/s0"])
        try:
            host.start(controller.host, controller.port)
            controller.wait_connected()
            host.telemetry.events.emit("test.marker", 1.0, n=0)
            push = host.connection.push

            def dead_link(doc):
                raise RPCError("link died mid-push")

            monkeypatch.setattr(host.connection, "push", dead_link)
            host._push_telemetry()
            assert (host.pushes, len(host.telemetry.events)) == (0, 1)
            monkeypatch.setattr(host.connection, "push", push)
            host._push_telemetry()
            assert (host.pushes, len(host.telemetry.events)) == (1, 0)
            assert _wait(
                lambda: [
                    [event.to_dict() for event in push.events]
                    for push in controller.telemetry
                ]
                == [[{"kind": "test.marker", "time": 1.0, "fields": {"n": 0}}]]
            )
        finally:
            host.stop()


class TestReservationOutlivesTheHost:
    def test_respawned_host_comes_back_at_its_jobs_reservation(self):
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=1, workload=WorkloadSpec(jobs=1, stages_per_job=1, rate=50.0)
            )
        )
        host = respawned = None
        try:
            host = _dial(runtime)
            runtime.admin("job.reservation", {"job": "job0", "rate": 25.0})
            assert runtime.controller.jobs["job0"].reservation == 25.0
            host.stop()  # the link closes: job0's only stage is evicted
            assert _wait(lambda: runtime.controller.jobs == {})
            respawned = _dial(runtime)
            assert runtime.controller.jobs["job0"].reservation == 25.0
            # ... and drives its stages with the workload it fetched again.
            assert respawned.workload.spec == runtime.config.workload
        finally:
            for h in (host, respawned):
                if h is not None:
                    h.stop()
            runtime.stop()
