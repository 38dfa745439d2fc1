"""Stage-host worker and supervisor units.

The live multi-process path (spawn, SIGKILL, takeover) is exercised
end-to-end by the CI serve smoke; these tests pin the pieces in
isolation: the round-robin partitioner, the host's validation and
registration/telemetry protocol against a real listening transport,
and the supervisor's argv construction and bookkeeping (without
spawning actual children).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import parse_config
from repro.core.rpc import CollectStats
from repro.core.stage import OrphanPolicy
from repro.errors import ConfigError
from repro.net import SocketTransport
from repro.service.config import ServiceConfig, WorkloadSpec
from repro.service.hosts import HostSupervisor, partition_stages
from repro.service.runtime import ServiceRuntime
from repro.service.stagehost import StageHost, job_of


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

    def test_push_interval_positive(self):
        with pytest.raises(ConfigError, match="push interval"):
            StageHost("host0", ["job0/s0"], push_interval=0.0)


class _Controller:
    """A listening controller-side transport capturing pushes."""

    def __init__(self):
        self.transport = SocketTransport()
        self.accepted = []
        self.pushed = []
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
        self.pushed.append(doc)

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
            push_interval=0.05,
        )
        try:
            host.start(controller.host, controller.port)
            connection = controller.wait_connected()
            assert _wait(
                lambda: len(
                    [d for d in controller.pushed if d["kind"] == "register"]
                )
                == 2
            )
            registers = [
                d for d in controller.pushed if d["kind"] == "register"
            ]
            assert {d["address"] for d in registers} == {"job0/s0", "job1/s0"}
            for doc in registers:
                assert doc["host"] == "hostA"
                assert doc["stage"].stage_id == doc["address"]
                assert doc["stage"].job_id == job_of(doc["address"])
                assert doc["stage"].pid > 0
            # The pump ships counters periodically without being asked.
            assert _wait(
                lambda: any(
                    d["kind"] == "telemetry" for d in controller.pushed
                )
            )
            push = next(
                d for d in controller.pushed if d["kind"] == "telemetry"
            )
            assert push["host"] == "hostA"
            assert push["workload"] is None  # no driver configured
            # The controller can call back over the reverse tunnel.
            controller.transport.attach("job0/s0", connection)
            stats = controller.transport.call(
                "job0/s0", CollectStats(now=host.clock())
            )
            assert stats.stage_id == "job0/s0"
            assert stats.job_id == "job0"
        finally:
            host.stop()

    def test_run_returns_zero_on_orderly_stop(self, controller):
        host = StageHost("hostB", ["job0/s0"], push_interval=0.05)
        host.start(controller.host, controller.port)
        controller.wait_connected()
        host.request_stop()
        assert host.run() == 0

    def test_run_returns_one_when_link_dies(self, controller):
        host = StageHost("hostC", ["job0/s0"], push_interval=0.05)
        host.start(controller.host, controller.port)
        connection = controller.wait_connected()
        connection.close(reason="controller going away")
        assert _wait(lambda: host.disconnected)
        assert host.run() == 1

    def test_duration_elapse_is_orderly(self, controller):
        host = StageHost("hostD", ["job0/s0"], push_interval=0.05)
        host.start(controller.host, controller.port)
        controller.wait_connected()
        assert host.run(duration=0.1) == 0

    def test_workload_counters_travel(self, controller):
        host = StageHost(
            "hostE",
            ["job0/s0"],
            workload=WorkloadSpec(jobs=1, stages_per_job=1, rate=200.0),
            push_interval=0.05,
        )
        try:
            host.start(controller.host, controller.port)
            controller.wait_connected()
            assert _wait(
                lambda: any(
                    d["kind"] == "telemetry" and d["workload"]
                    for d in controller.pushed
                )
            )
        finally:
            host.stop()
        doc = next(
            d
            for d in controller.pushed
            if d["kind"] == "telemetry" and d["workload"]
        )
        assert doc["workload"].get("submitted", 0) >= 0


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
            _proc_config(), "127.0.0.1", 4321, respawn=False
        )
        assert supervisor.control_address() == "127.0.0.1:4321"
        pids = supervisor.pids()
        assert sorted(pids) == ["host0", "host1"]
        assert all(pid is None for pid in pids.values())
        argvs = {
            child.host_id: child.argv for child in supervisor._children
        }
        stages = []
        for host_id, argv in argvs.items():
            assert argv[argv.index("--connect") + 1] == "127.0.0.1:4321"
            assert argv[argv.index("--host-id") + 1] == host_id
            stages.extend(argv[argv.index("--stages") + 1].split(","))
        # Every stage in the world is owned by exactly one host.
        assert sorted(stages) == sorted(
            s
            for bucket in partition_stages(2, 2, 2)
            for s in bucket
        )

    def test_per_host_seeds_differ(self):
        supervisor = HostSupervisor(
            _proc_config(), "127.0.0.1", 4321, respawn=False
        )
        seeds = set()
        for child in supervisor._children:
            argv = child.argv
            seeds.add(argv[argv.index("--seed") + 1])
        assert len(seeds) == 2

    def test_counters_before_start(self):
        supervisor = HostSupervisor(
            _proc_config(), "127.0.0.1", 4321, respawn=False
        )
        assert supervisor.counters() == {
            "hosts": 2,
            "alive": 0,
            "restarts": 0,
        }


class TestUnshippedStageSettings:
    """The supervisor's argv carries seed, channel name, workload and
    sampling; a per-stage setting it cannot carry must not be dropped
    silently on the way to a stage-host process."""

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
        ],
    )
    def test_refused_by_name(self, kwargs, named):
        with pytest.raises(ConfigError, match=rf"stage_procs=2 cannot carry {named} "):
            ServiceRuntime(_proc_config(**kwargs))
        # The same settings are fine where the stages are built in-process.
        ServiceRuntime(_proc_config(stage_procs=0, **kwargs))

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
