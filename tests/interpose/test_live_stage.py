"""Tests for the wall-clock LiveStage."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.rpc import CollectStats, EnforceRate, StageEndpoint
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_stage(rate=100.0, mounts=None):
    clock = FakeClock()
    stage = LiveStage(StageIdentity("ls0", "jobL"), pfs_mounts=mounts, clock=clock)
    stage.create_channel("metadata", rate=rate)
    stage.add_classifier_rule(
        ClassifierRule(
            "md",
            "metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    return stage, clock


class TestLiveStage:
    def test_throttle_enforced_request(self):
        stage, _ = make_stage()
        decision = stage.throttle(Request(OperationType.OPEN, path="/f"))
        assert decision.enforced
        assert stage.granted_total("metadata") == 1.0

    def test_passthrough_request(self):
        stage, _ = make_stage()
        decision = stage.throttle(Request(OperationType.READ, path="/f"))
        assert not decision.enforced
        assert stage.passthrough_total == 1.0

    def test_mount_filtering(self):
        stage, _ = make_stage(mounts=("/pfs",))
        assert not stage.throttle(Request(OperationType.OPEN, path="/tmp/f")).enforced
        assert stage.throttle(Request(OperationType.OPEN, path="/pfs/f")).enforced

    def test_job_id_stamped(self):
        stage, _ = make_stage()
        req = Request(OperationType.OPEN, path="/f")
        stage.throttle(req)
        assert req.job_id == "jobL"

    def test_duplicate_channel_rejected(self):
        stage, _ = make_stage()
        with pytest.raises(ConfigError):
            stage.create_channel("metadata")

    def test_rule_requires_channel(self):
        stage, _ = make_stage()
        with pytest.raises(ConfigError):
            stage.add_classifier_rule(
                ClassifierRule(
                    "bad", "ghost", op_types=frozenset({OperationType.OPEN})
                )
            )

    def test_set_rate(self):
        stage, _ = make_stage(rate=5.0)
        stage.set_channel_rate("metadata", 50.0)
        assert stage.channel_rate("metadata") == 50.0

    def test_collect_shape_compatible(self):
        stage, clock = make_stage()
        for _ in range(4):
            stage.throttle(Request(OperationType.OPEN, path="/f"))
        stage.throttle(Request(OperationType.READ, path="/f"))
        clock.t = 2.0
        stats = stage.collect()
        assert stats.job_id == "jobL"
        assert stats.window == pytest.approx(2.0)
        snap = stats.channels[0]
        assert snap.granted_ops == 4.0
        assert snap.enqueued_ops == 4.0  # live stage has no queue
        assert snap.backlog == 0.0
        assert stage.passthrough_total == 1.0
        # Window resets.
        clock.t = 3.0
        assert stage.collect().channels[0].granted_ops == 0.0

    def test_drivable_by_stage_endpoint(self):
        """The same RPC endpoint drives simulated and live stages."""
        stage, clock = make_stage()
        endpoint = StageEndpoint(stage)
        endpoint.handle(EnforceRate(channel_id="metadata", rate=7.0, now=0.0))
        assert stage.channel_rate("metadata") == 7.0
        clock.t = 1.0
        stats = endpoint.handle(CollectStats(now=1.0))
        assert stats.job_id == "jobL"


class TestControlAgainstDataPath:
    def test_control_verbs_race_throttling_threads(self):
        """Stage lock -> bucket lock, never the reverse: a control thread
        enforcing, collecting and re-creating channels while application
        threads throttle (and drive orphan decay) must neither deadlock
        nor lose a grant from the collect windows."""
        import sys
        import threading
        import time

        from repro.core.stage import OrphanPolicy

        stage = LiveStage(StageIdentity("ls0", "jobL"))
        stage.set_orphan_policy(
            OrphanPolicy(orphan_after=1, mode="decay", floor=1e8, half_life=0.001),
            0.001,
        )
        stage.create_channel("metadata", rate=1e9)
        stage.add_classifier_rule(
            ClassifierRule(
                "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
            )
        )
        n_threads, per_thread = 8, 2000
        collected = []
        done = threading.Event()

        def application():
            for _ in range(per_thread):
                stage.throttle(Request(OperationType.OPEN, path="/f"))

        def controller():
            while not done.is_set():
                stage.set_channel_rate("metadata", 1e9)
                collected.append(stage.collect().channels[0].granted_ops)
                stage.create_channel("scratch")
                stage.remove_channel("scratch")
                time.sleep(0.0005)  # long enough for the stage to orphan

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            control = threading.Thread(target=controller)
            apps = [threading.Thread(target=application) for _ in range(n_threads)]
            control.start()
            for thread in apps:
                thread.start()
            for thread in apps:
                thread.join(timeout=30.0)
            done.set()
            control.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not control.is_alive() and not any(t.is_alive() for t in apps)
        collected.append(stage.collect().channels[0].granted_ops)
        assert sum(collected) == n_threads * per_thread
        assert stage.granted_total("metadata") == n_threads * per_thread
        assert stage.orphan_transitions >= 1


class TestOneLockPathIsExact:
    """The non-blocking grant and its counters share one critical section;
    nothing may be lost or counted twice against concurrent control."""

    N_THREADS, PER_THREAD = 8, 20_000

    def _hammer(self, rate):
        import sys
        import threading
        import time

        start = time.monotonic()  # before the bucket exists, so it bounds its age
        stage = LiveStage(StageIdentity("ls0", "jobL"))
        stage.create_channel("metadata", rate=rate)
        stage.add_classifier_rule(
            ClassifierRule(
                "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
            )
        )
        windows, over_grants = [], []
        done = threading.Event()

        def application():
            admit = stage.admit
            for _ in range(self.PER_THREAD):
                admit(OperationType.STAT, "/pfs/f")

        def controller():
            while not done.is_set():
                stage.set_channel_rate("metadata", rate)
                windows.append(stage.collect().channels[0].granted_ops)
                granted = stage.granted_total("metadata")
                allowance = rate * (time.monotonic() - start + 1.0)
                if granted > allowance:
                    over_grants.append((granted, allowance))
                time.sleep(0.0005)

        control = threading.Thread(target=controller)
        apps = [threading.Thread(target=application) for _ in range(self.N_THREADS)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt inside the critical sections
        try:
            control.start()
            for thread in apps:
                thread.start()
            for thread in apps:
                thread.join(timeout=60.0)
            elapsed = time.monotonic() - start
            done.set()
            control.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not control.is_alive() and not any(t.is_alive() for t in apps)
        windows.append(stage.collect().channels[0].granted_ops)
        return stage, windows, over_grants, elapsed

    def test_unlimited_channel_counts_every_admit(self):
        stage, windows, over_grants, _ = self._hammer(float("inf"))
        calls = self.N_THREADS * self.PER_THREAD
        assert stage.granted_total("metadata") == calls
        assert sum(windows) == calls
        assert not over_grants

    def test_finite_channel_counts_every_admit_and_never_over_grants(self):
        # 120 000 in the burst, the other 40 000 waited for: both places a
        # grant is counted (admit, and record after a blocking wait) run.
        rate = 120_000.0
        stage, windows, over_grants, elapsed = self._hammer(rate)
        calls = self.N_THREADS * self.PER_THREAD
        assert stage.granted_total("metadata") == calls
        assert sum(windows) == calls
        assert not over_grants
        assert calls <= rate * (elapsed + 1.0)


class TestThrottleIsAdmit:
    """``throttle(Request(op, path))`` is ``admit(op, path)``: same
    decision, same counters, same telemetry."""

    CALLS = [
        (OperationType.OPEN, "/pfs/f", 1.0),
        (OperationType.STAT, "/pfs/dir/g", 2.5),
        (OperationType.OPEN, "/tmp/f", 1.0),   # outside the mount
        (OperationType.READ, "/pfs/f", 1.0),   # no rule for data ops
        (OperationType.FSTAT, "", 1.0),        # unknown path: PFS-bound
    ]

    @staticmethod
    def _telemetry(mode):
        from repro.telemetry.runtime import Telemetry, TelemetryConfig

        if mode == "off":
            return None
        return Telemetry(
            TelemetryConfig(seed=3, sample_rate=0.5, trace=mode == "sampled")
        )

    def _drive(self, mode, verb):
        telemetry = self._telemetry(mode)
        clock = FakeClock()
        stage = LiveStage(
            StageIdentity("ls0", "jobL"), pfs_mounts=("/pfs",), clock=clock,
            telemetry=telemetry,
        )
        stage.create_channel("metadata", rate=1000.0)
        stage.add_classifier_rule(
            ClassifierRule(
                "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
            )
        )
        decisions = []
        for _ in range(4):
            for op, path, count in self.CALLS:
                clock.t += 0.25
                if verb == "throttle":
                    decisions.append(stage.throttle(Request(op, path=path, count=count)))
                else:
                    decisions.append(stage.admit(op, path, count))
        stats = stage.collect(clock.t)
        spans = counter = None
        if telemetry is not None:
            counter = telemetry.registry.counter(
                "padll_live_throttled_ops_total", stage="ls0"
            ).value
            if telemetry.tracer is not None:
                spans = [
                    (s.trace_id, s.name, s.start, s.end, s.attrs)
                    for s in telemetry.tracer.spans
                ]
        return (
            decisions, stage.granted_total("metadata"), stage.passthrough_total,
            stats, counter, spans,
        )

    @pytest.mark.parametrize("mode", ["off", "counter", "sampled"])
    def test_same_decisions_counters_and_spans(self, mode):
        via_throttle = self._drive(mode, "throttle")
        via_admit = self._drive(mode, "admit")
        assert via_throttle == via_admit
        decisions, granted, passthrough, _, counter, spans = via_admit
        assert [d.enforced for d in decisions[:5]] == [True, True, False, False, True]
        assert granted == 4 * 4.5 and passthrough == 4 * 2.0
        assert counter == (None if mode == "off" else granted)
        if mode == "sampled":
            assert spans and len(spans) < 12  # head-sampled at 0.5
            assert all(name == "live.throttle" for _, name, *_ in spans)
            assert all(
                sorted(attrs) == ["channel", "count", "job", "stage"]
                and attrs["channel"] == "metadata"
                and attrs["stage"] == "ls0"
                and attrs["job"] == "jobL"
                for *_, attrs in spans
            )
        else:
            assert spans is None

    def test_stop_on_a_starved_channel_abandons_both(self):
        import threading

        stage, _ = make_stage(rate=0.5)
        bucket = stage._channels["metadata"].bucket
        assert bucket.try_acquire(0.5)  # drain: no token for anyone
        stop = threading.Event()
        stop.set()
        assert stage.throttle(Request(OperationType.OPEN, path="/f"), stop=stop) is None
        assert stage.admit(OperationType.OPEN, "/f", stop=stop) is None
        assert stage.granted_total("metadata") == 0.0
        assert stage.collect(1.0).channels[0].granted_ops == 0.0

    def test_admit_stamps_the_stage_job_unless_given_one(self):
        stage, _ = make_stage()
        stage.create_channel("other", rate=100.0)
        stage.add_classifier_rule(
            ClassifierRule(
                "theirs", "other", job_ids=frozenset({"jobX"}), priority=5
            )
        )
        assert stage.admit(OperationType.OPEN, "/f").channel_id == "metadata"
        assert stage.admit(OperationType.OPEN, "/f", job_id="jobX").channel_id == "other"
        request = Request(OperationType.OPEN, path="/f", job_id="jobX")
        assert stage.throttle(request).channel_id == "other"


class TestBlockedCallSeesTheOrphanFloor:
    def test_a_call_blocked_at_min_rate_is_released_by_the_decay_floor(self):
        """A call that enters at ``MIN_RATE`` with no ``stop`` event must
        still see the orphan policy's floor once the controller falls
        silent: the silence is re-checked between naps, not only before
        the call blocks (else it waits ~1e9 s for a token)."""
        import threading

        from repro.core.algorithms import MIN_RATE
        from repro.core.stage import OrphanPolicy
        from repro.core.token_bucket import UNLIMITED

        stage = LiveStage(StageIdentity("ls0", "jobL"))
        stage.create_channel("metadata")
        stage.add_classifier_rule(
            ClassifierRule(
                "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
            )
        )
        # Orphaned after 2 x 0.05 s without enforcement; the floor admits
        # a call within milliseconds.
        stage.set_orphan_policy(
            OrphanPolicy(orphan_after=2, mode="decay", floor=1000.0, half_life=1.0),
            0.05,
        )
        stage.set_channel_rate("metadata", MIN_RATE)  # adopted, then silence
        admitted = []
        caller = threading.Thread(
            target=lambda: admitted.append(stage.admit(OperationType.OPEN, "/f")),
            name="padll-test-blocked-admit",
            daemon=True,
        )
        caller.start()
        try:
            caller.join(timeout=5.0)
            released = not caller.is_alive()
        finally:
            # Free a call still blocked (the enforcement also re-adopts).
            stage.set_channel_rate("metadata", UNLIMITED)
            caller.join(timeout=5.0)
        assert released, "the blocked call never saw the orphan floor"
        assert not caller.is_alive()
        assert admitted and admitted[0].channel_id == "metadata"
        assert stage.orphan_transitions == 1
        assert stage.granted_total("metadata") == 1.0
