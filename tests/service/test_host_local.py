"""Stage hosts as the locals of a hierarchical plane, through the service.

``serve`` with ``stage_procs > 0`` builds a
:class:`~repro.core.hierarchy.ControlPlane` whose locals are
its stage hosts.  Pinned here, over real sockets and a manual clock: with
whole jobs on one host the enforcement log is the in-process (flat)
service's, bit for bit; a respawned host takes its name over and the old
link's late close changes nothing; a remote stage an admin verb
evicts stops being collected and enforced -- its host's local forgets it
and it keeps its last rate, as a deregistered stage always has; and a
host whose collect reply is malformed misses its own cycle, nobody else's.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.algorithms import MIN_RATE
from repro.core.controller import ControlPlane
from repro.core.controller import ControlPlane
from repro.core.hierarchy import AggregateStats, CollectAggregate
from repro.core.requests import OperationType
from repro.core.stage import StageIdentity
from repro.net import SocketTransport
from repro.service.config import WorkloadSpec
from repro.service.runtime import ServiceRuntime
from repro.service.stagehost import StageHost, register_push
from tests.service.test_stagehost import _ManualClock, _dial, _proc_config, _wait

#: ``admit`` never blocks on the manual clock.
NO_WAIT = threading.Event()
NO_WAIT.set()


def _tick(runtime, clock, stages, n=1):
    """``n`` loop periods: every stage offers its job's demand, then a tick."""
    for _ in range(n):
        clock.t += runtime.config.interval
        for stage in stages:
            job = int(stage.identity.job_id[len("job"):])
            stage.admit(
                OperationType.OPEN, "/pfs/f", count=40.0 * (job + 1) + clock.t % 7,
                stop=NO_WAIT,
            )
        runtime.controller.tick(clock.t)


def _world(stage_procs, clock, **kwargs):
    runtime = ServiceRuntime(
        _proc_config(stage_procs=stage_procs, trace=False, **kwargs), clock
    )
    host = None
    try:
        if stage_procs:
            host = _dial(runtime, clock=clock)
        return runtime, host, host.stages if host else runtime.stages
    except BaseException:
        runtime.stop()
        raise


def _metadata_rates(stages):
    return {stage.identity.stage_id: stage.channel_rate("metadata") for stage in stages}


class TestOneHostIsTheFlatPlane:
    def test_enforcement_log_equals_the_in_process_service(self):
        runs = []
        for stage_procs in (0, 1):
            clock = _ManualClock()
            runtime, host, stages = _world(
                stage_procs, clock,
                workload=WorkloadSpec(jobs=3, stages_per_job=2, rate=0.0),
            )
            try:
                # The plane follows where the stages live.
                assert type(runtime.controller) is (
                    ControlPlane if stage_procs else ControlPlane
                )
                _tick(runtime, clock, stages, n=30)
                runs.append(
                    (runtime.controller.enforcement_log.to_list(), _metadata_rates(stages))
                )
            finally:
                if host is not None:
                    host.stop()
                runtime.stop()
        (flat_log, flat_rates), (host_log, host_rates) = runs
        assert len(flat_log) == 90  # 3 jobs x 30 ticks
        assert host_log == flat_log
        assert host_rates == flat_rates


class TestTakeover:
    def test_a_same_named_host_takes_over_and_a_late_close_changes_nothing(self):
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=1, trace=False,
                workload=WorkloadSpec(jobs=1, stages_per_job=2, rate=0.0),
            )
        )
        old = new = None
        try:
            old = _dial(runtime)
            record = runtime.hosts.records["host0"]
            old_link = record.connection
            old_handle = runtime.controller.locals["host0"]
            new = StageHost("host0", ["job0/s0", "job0/s1"])
            new.start(*runtime.control_address)
            assert _wait(
                lambda: record.connection is not old_link
                and runtime.controller.local_stages("host0") == ["job0/s0", "job0/s1"]
            )
            assert list(runtime.controller.locals) == ["host0"]
            assert runtime.controller.locals["host0"] is not old_handle
            assert [
                (e.fields["stage"], e.fields["reason"])
                for e in runtime.telemetry.events.of_kind("host.evict")
            ] == [("job0/s0", "takeover"), ("job0/s1", "takeover")]
            # The old link closes after the takeover: its close (and any
            # late push) is not the host's any more.
            old.stop()
            assert _wait(lambda: old_link.closed)
            runtime._on_wire_close(old_link)
            assert record.connection is not old_link
            assert sorted(runtime.controller.stages) == ["job0/s0", "job0/s1"]
            runtime.controller.tick(new.clock())
            assert runtime.controller.collect_failures == 0
            assert all(
                rate != float("inf") for rate in _metadata_rates(new.stages).values()
            )
            # The new link's own close detaches it.
            new.stop()
            assert _wait(lambda: runtime.controller.locals == {})
            assert runtime.controller.stages == {}
        finally:
            for host in (old, new):
                if host is not None:
                    host.stop()
            runtime.stop()


class TestEvictionReachesTheHost:
    @pytest.mark.parametrize(
        "action, params, evicted",
        [
            ("stage.evict", {"stage": "job0/s1"}, ["job0/s1"]),
            ("job.evict", {"job": "job1"}, ["job1/s0", "job1/s1"]),
        ],
    )
    def test_an_evicted_remote_stage_keeps_its_last_rate(self, action, params, evicted):
        clock = _ManualClock()
        runtime, host, stages = _world(
            1, clock, capacity=50.0,
            workload=WorkloadSpec(jobs=2, stages_per_job=2, rate=0.0),
        )
        try:
            _tick(runtime, clock, stages, n=3)
            before = _metadata_rates(stages)
            assert runtime.admin(action, params)["applied"] is True
            assert _wait(lambda: not set(evicted) & set(host.local.stage_ids))
            assert not set(evicted) & set(runtime.controller.stages)
            _tick(runtime, clock, stages, n=3)
            after = _metadata_rates(stages)
            for stage_id in evicted:  # neither collected nor enforced
                assert after[stage_id] == before[stage_id]
            # A job's remaining stages split its whole rate between them.
            last = {job: rate for _, job, rate in runtime.controller.enforcement_log.to_list()}
            for job_id, job in runtime.controller.jobs.items():
                for stage_id in job.stage_ids:
                    assert after[stage_id] == max(MIN_RATE, last[job_id] / job.n_stages)
        finally:
            host.stop()
            runtime.stop()


def _hostile(message):
    """A host's handler whose collect reply has the record's arity and
    nonsense fields (a name, a time and one job-less entry)."""
    if isinstance(message, CollectAggregate):
        return AggregateStats("rack1", 1.0, ("x",))
    return True


class TestHostileHost:
    def test_a_malformed_reply_misses_only_its_own_host(self):
        clock = _ManualClock()
        runtime = ServiceRuntime(
            _proc_config(
                stage_procs=2, trace=False,
                workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=0.0),
            ),
            clock,
        )
        healthy = hostile = None
        try:
            healthy = StageHost("host0", ["job0/s0"], clock=clock)
            healthy.start(*runtime.control_address)
            hostile = SocketTransport()
            hostile.bind("host1", _hostile)
            link = hostile.connect(*runtime.control_address, name="host1")
            link.push(register_push(StageIdentity("job1/s0", "job1")))
            assert _wait(lambda: len(runtime.controller.stages) == 2)
            clock.t += runtime.config.interval
            # The reply is refused where its bytes are decoded: one miss,
            # host1's, and the tick goes on to push host0's batch.
            runtime.controller.tick(clock.t)
            assert runtime.controller.collect_failures == 1
            assert runtime.controller._missed_collects == {"host1": 1}
            (stage,) = healthy.stages
            assert stage.channel_rate("metadata") != float("inf")
        finally:
            if healthy is not None:
                healthy.stop()
            if hostile is not None:
                hostile.close()
            runtime.stop()
