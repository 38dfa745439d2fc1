"""Wall-clock data-plane stage for the live interposition layer.

A :class:`~repro.core.stage.StageCore` like the simulated
:class:`~repro.core.stage.DataPlaneStage`, so the same
:class:`~repro.core.rpc.StageEndpoint` and
:class:`~repro.core.controller.ControlPlane` drive both and every
control verb behaves the same on both.  What this module adds is what
only a live stage has: the wall clock the core is handed, the stage lock
that serialises control messages against application threads, and the
data path -- instead of queue-and-drain, the live stage *blocks the
calling thread* in :meth:`LiveStage.admit` until its channel's bucket
grants a token, exactly what the LD_PRELOAD shim does to an application
thread.

Lock order is stage -> channel, never the reverse: the data path holds
at most one of them at a time, and a call that is admitted without
waiting takes exactly one lock in all -- its channel's (which is the
bucket's), or the stage's when it is passed through.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence

from repro.core.differentiation import Classifier, Decision
from repro.core.requests import OperationType, Request
from repro.core.stage import OrphanPolicy, StageCore, StageIdentity, StageStats
from repro.core.token_bucket import UNLIMITED
from repro.interpose.live_bucket import LiveTokenBucket

__all__ = ["LiveStage"]

#: Longest a blocked call waits in its bucket before it looks up again:
#: at the ``stop`` event it was handed, and at the controller's silence
#: when an orphan policy is installed.
ACQUIRE_NAP = 0.2


class _LiveChannel:
    """A bucket and its grant counters; no queue (blocked threads hold
    their own requests), so backlog is always zero."""

    __slots__ = ("channel_id", "bucket", "granted_total", "window_granted", "lock")

    backlog = 0.0

    def __init__(self, channel_id: str, bucket: LiveTokenBucket) -> None:
        self.channel_id = channel_id
        self.bucket = bucket
        self.granted_total = 0.0
        self.window_granted = 0.0
        self.lock = bucket.lock

    @property
    def rate(self) -> float:
        return self.bucket.rate

    def set_rate(self, rate: float, now: float, burst: Optional[float] = None) -> None:
        # The bucket stamps the change from its own wall clock.
        self.bucket.set_rate(rate, burst)

    def admit(self, count: float) -> bool:
        """Grant ``count`` now if the bucket allows it, and count the grant
        in the same critical section; never blocks."""
        with self.lock:
            if not (self.bucket.unlimited or self.bucket.take(count)):
                return False
            self.granted_total += count
            self.window_granted += count
        return True

    def record(self, count: float) -> None:
        """Count a grant the caller waited for (:meth:`LiveStage._acquire`)."""
        with self.lock:
            self.granted_total += count
            self.window_granted += count

    def collect(self) -> tuple[float, float, float]:
        """Return and reset the rate window: (granted, enqueued, backlog)."""
        with self.lock:
            window = self.window_granted
            self.window_granted = 0.0
        return window, window, 0.0


class LiveStage(StageCore):
    """A PADLL stage enforcing rates on real (wall-clock) I/O."""

    def __init__(
        self,
        identity: StageIdentity,
        pfs_mounts: Optional[Sequence[str]] = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
    ) -> None:
        super().__init__(identity, Classifier(pfs_mounts=pfs_mounts), clock())
        self._clock = clock
        self._lock = threading.Lock()
        self._m_throttled = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry) -> None:
        """Wire the live data path into a telemetry spine.

        The live layer runs on real application threads, so spans are
        stamped from this stage's wall clock -- the one place in the tree
        where telemetry timestamps do not come from a simulation clock.
        """
        self._telemetry = telemetry
        self._m_throttled = (
            None
            if telemetry is None
            else telemetry.registry.counter(
                "padll_live_throttled_ops_total", stage=self.identity.stage_id
            )
        )

    # -- control-plane surface: the core's verbs under the stage lock ----------
    def _make_channel(
        self, channel_id: str, rate: float, burst: Optional[float], now: float
    ) -> _LiveChannel:
        return _LiveChannel(
            channel_id, LiveTokenBucket(rate, burst, clock=self._clock)
        )

    def create_channel(
        self,
        channel_id: str,
        rate: float = UNLIMITED,
        burst: Optional[float] = None,
        *,
        now: float = 0.0,
    ) -> _LiveChannel:
        with self._lock:
            return super().create_channel(channel_id, rate, burst, now=now)

    def remove_channel(self, channel_id: str) -> None:
        with self._lock:
            super().remove_channel(channel_id)

    def set_channel_rate(
        self, channel_id: str, rate: float, now: float = 0.0, burst: Optional[float] = None
    ) -> None:
        """Apply a rate rule; ``now`` is the sender's clock and is ignored
        -- silence is measured on this stage's own."""
        with self._lock:
            self._enforce_rate(channel_id, rate, self._clock(), burst)

    def set_orphan_policy(
        self, policy: Optional[OrphanPolicy], loop_interval: Optional[float] = None
    ) -> None:
        with self._lock:
            super().set_orphan_policy(policy, loop_interval)

    def _check_silence(self) -> None:
        with self._lock:
            self._orphan_check(self._clock())

    # -- data path ------------------------------------------------------------------
    def _acquire(self, channel: _LiveChannel, count: float, stop) -> bool:
        """Block in the bucket, in naps of :data:`ACQUIRE_NAP`.

        Between naps a call gives up once ``stop`` is set (the operator
        service's workload threads pass their shutdown event, so a
        clamped channel cannot pin a thread through teardown), and runs
        the orphan check: a call blocked at a near-zero rate when the
        controller falls silent is released by the policy's decay floor,
        not by a token that may be 10^9 s away.
        """
        bucket = channel.bucket
        while stop is None or not stop.is_set():
            if bucket.acquire(count, timeout=ACQUIRE_NAP):
                return True
            if self._orphan_policy is not None:
                self._check_silence()
        return False

    def admit(
        self,
        op: OperationType,
        path: str,
        count: float = 1.0,
        stop=None,
        job_id: Optional[str] = None,
    ) -> Optional[Decision]:
        """Classify ``(op, path)`` and block until its channel admits it.

        The data path: the interposer's wrappers call this with the op
        and the path text, no :class:`Request`.  ``stop`` (a
        ``threading.Event``) makes the wait interruptible: when it is
        set before the bucket grants, the call is abandoned and ``None``
        is returned instead of a decision.
        """
        decision = self.classifier.decide(op, job_id or self.identity.job_id, path)
        channel_id = decision.channel_id
        if channel_id is None:
            with self._lock:
                self._passthrough_total += count
            return decision
        if self._orphan_policy is not None:
            self._check_silence()
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = self._channel(channel_id)  # raises, naming the stage
        ctx = None
        telemetry = self._telemetry
        if telemetry is not None:
            self._m_throttled.inc(count)
            tracer = telemetry.tracer
            if tracer is not None:
                with self._lock:
                    ctx = tracer.sample()
                if ctx is not None:
                    start = self._clock()
        if not channel.admit(count):
            if not self._acquire(channel, count, stop):
                return None
            channel.record(count)
        if ctx is not None:
            end = self._clock()
            with self._lock:
                tracer.emit_span(
                    ctx, "live.throttle", start, end,
                    channel=channel_id,
                    count=count,
                    stage=self.identity.stage_id,
                    job=self.identity.job_id,
                )
        return decision

    def throttle(self, request: Request, stop=None) -> Optional[Decision]:
        """:meth:`admit` for a caller that already holds a request record."""
        request.job_id = request.job_id or self.identity.job_id
        return self.admit(request.op, request.path, request.count, stop, request.job_id)

    # -- monitoring -------------------------------------------------------------------
    def granted_total(self, channel_id: str) -> float:
        return self._channel(channel_id).granted_total

    def collect(self, now: Optional[float] = None) -> StageStats:
        """Window statistics, in the same shape the simulated stage reports.

        The live path has no queue, so ``enqueued == granted`` and backlog
        is always zero (blocked threads hold their own requests).
        """
        t = self._clock() if now is None or now == 0.0 else now
        with self._lock:
            return self._collect_window(t)
