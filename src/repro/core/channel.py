"""Enforcement channel: FIFO queue + token bucket + statistics.

This is the PAIO subset PADLL is built on.  Each channel serves one set of
requests (e.g. "all metadata ops", "open calls", "requests under
/scratch/foo") at the rate its token bucket allows.  Requests enter via
:meth:`enqueue`; the stage drains channels once per tick via :meth:`drain`,
which grants as many queued operations as the bucket (and any downstream
capacity bound) permits, preserving FIFO order and splitting batches
exactly at the token boundary.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.errors import ConfigError
from repro.core.requests import Request
from repro.core.token_bucket import TokenBucket, UNLIMITED

__all__ = ["Channel", "ChannelStats"]


@dataclass(slots=True)
class ChannelStats:
    """Cumulative counters plus a rate window, exported to the control plane."""

    enqueued_ops: float = 0.0
    granted_ops: float = 0.0
    #: ops granted since the last collect() -- the control loop's rate signal.
    window_granted: float = 0.0
    #: ops enqueued since the last collect() -- the demand signal.
    window_enqueued: float = 0.0
    #: Sum of (queue wait * ops) over all grants, for mean-wait reporting.
    wait_sum: float = 0.0
    #: Largest queue wait observed by any granted request.
    wait_max: float = 0.0

    @property
    def backlog(self) -> float:
        return self.enqueued_ops - self.granted_ops

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay per granted operation (seconds)."""
        if self.granted_ops == 0:
            return 0.0
        return self.wait_sum / self.granted_ops


class Channel:
    """One rate-limited queue inside a data-plane stage."""

    def __init__(
        self,
        channel_id: str,
        rate: float = UNLIMITED,
        burst: Optional[float] = None,
        *,
        now: float = 0.0,
        integral: bool = False,
    ) -> None:
        if not channel_id:
            raise ConfigError("channel needs an id")
        self.channel_id = channel_id
        #: When True, requests are granted whole (never split) -- the
        #: discrete per-request mode.  Fluid experiment channels leave this
        #: False and split batches exactly at the token boundary.
        self.integral = integral
        self.bucket = TokenBucket(rate, burst, now=now)
        self._queue: Deque[Request] = deque()
        self._backlog = 0.0
        self.stats = ChannelStats()
        # Telemetry handles (None = telemetry off; see attach_telemetry).
        self._h_wait = None
        self._m_granted = None

    # -- telemetry ---------------------------------------------------------------
    #: Queue-wait histogram edges (seconds): sub-tick through minutes-long stalls.
    WAIT_BUCKET_BOUNDS = (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0)

    def attach_telemetry(self, telemetry, stage_id: str) -> None:
        """Create this channel's metric handles and wire the bucket observer.

        Called by the owning stage when (and only when) the world runs with
        telemetry; the default path never reaches any of this.
        """
        registry = telemetry.registry
        channel_id = self.channel_id
        self._m_granted = registry.counter(
            "padll_channel_granted_ops_total", stage=stage_id, channel=channel_id
        )
        self._h_wait = registry.histogram(
            "padll_channel_queue_wait_seconds",
            self.WAIT_BUCKET_BOUNDS,
            stage=stage_id,
            channel=channel_id,
        )
        rate_gauge = registry.gauge(
            "padll_channel_rate_limit_ops", stage=stage_id, channel=channel_id
        )
        rate_gauge.set(self.bucket.rate)
        events = telemetry.events

        def on_rate_change(rate: float, now: float) -> None:
            rate_gauge.set(rate)
            events.emit(
                "bucket.rate", now, stage=stage_id, channel=channel_id, rate=rate
            )

        self.bucket.set_observer(on_rate_change)

    # -- introspection ---------------------------------------------------------
    @property
    def backlog(self) -> float:
        """Operations enqueued but not yet granted."""
        return self._backlog

    @property
    def queue_depth(self) -> int:
        """Number of queued request records (batches count once)."""
        return len(self._queue)

    @property
    def rate(self) -> float:
        return self.bucket.rate

    # -- control-plane actions ----------------------------------------------
    def set_rate(self, rate: float, now: float, burst: Optional[float] = None) -> None:
        """Re-provision this channel's token bucket (rule enforcement)."""
        self.bucket.set_rate(rate, now, burst)

    # -- data path ---------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> None:
        """Admit ``request`` to the tail of the queue."""
        request.submitted_at = now
        self._queue.append(request)
        self._backlog += request.count
        self.stats.enqueued_ops += request.count
        self.stats.window_enqueued += request.count

    def drain(
        self,
        now: float,
        limit: float = math.inf,
        sink: Optional[Callable[[Request], None]] = None,
        telemetry=None,
    ) -> float:
        """Release queued work the bucket allows; return ops granted.

        ``limit`` optionally bounds the grant below the bucket allowance
        (e.g. downstream file-system capacity).  ``sink`` receives each
        granted request record (batches may be split so that exactly the
        granted count flows downstream).  With ``telemetry`` every grant
        is also observed (queue-wait histogram, ``queue.wait`` span)
        before it reaches ``sink`` (:meth:`_observers`); the grant loop
        itself is the same one.
        """
        if limit < 0:
            raise ConfigError(f"drain limit must be >= 0, got {limit}")
        queue = self._queue
        if not queue or limit == 0:
            self.bucket.refill(now)
            return 0.0
        popleft = queue.popleft
        observe = None
        if telemetry is not None:
            popleft, observe = self._observers(now, telemetry)
        # Same values as max(0.0, min(backlog, limit)) without the calls.
        want = self._backlog
        if limit < want:
            want = limit
        if want < 0.0:
            want = 0.0
        allowance = self.bucket.consume_available(want, now)
        granted = 0.0
        remaining = allowance
        # The grant loop runs once per queued (tick, kind, slice) record --
        # a first-order cost in fluid experiments -- so statistics run on
        # locals (same adds, same order; written back below) and the two
        # ``max`` calls per grant become branches with identical results.
        stats = self.stats
        wait_sum = stats.wait_sum
        wait_max = stats.wait_max
        while remaining > 0 and queue:
            head = queue[0]
            wait = now - head.submitted_at
            if wait < 0.0:
                wait = 0.0
            count = head.count
            if count <= remaining:
                popleft()
                remaining -= count
            elif self.integral:
                # Whole-request mode: the head does not fit, stop here.
                break
            else:
                # The granted part stands in for the head from here on.
                head, rest = head.split(remaining)
                queue[0] = rest
                count = head.count
                remaining = 0.0
                if observe is not None:
                    observe(head)
            granted += count
            wait_sum += wait * count
            if wait > wait_max:
                wait_max = wait
            if sink is not None:
                sink(head)
        stats.wait_sum = wait_sum
        stats.wait_max = wait_max
        # Return unused allowance (from batch-boundary rounding) to the
        # bucket: the discrete path consumes whole requests only.
        if remaining > 0:
            self.bucket.refund(remaining)
        self._backlog -= granted
        if not queue:
            self._backlog = 0.0  # clamp accumulated float error
        stats.granted_ops += granted
        stats.window_granted += granted
        if telemetry is not None and self._m_granted is not None:
            self._m_granted.inc(granted)
        return granted

    def _observers(self, now: float, telemetry) -> tuple:
        """``(popleft, observe)``: this channel's per-grant telemetry for
        a drain at ``now``.

        ``popleft`` is the queue's, observing the record it removes -- a
        whole grant; ``observe`` takes the one head a drain splits off.
        A granted record keeps its ``submitted_at`` and trace context
        through a split, so everything the histogram and the span need
        is on the record, and the grant loop pays nothing for telemetry
        it does not have.
        """
        tracer = telemetry.tracer
        h_wait = self._h_wait
        channel_id = self.channel_id
        pop = self._queue.popleft

        def observe(granted: Request) -> None:
            if h_wait is not None:
                wait = now - granted.submitted_at
                h_wait.observe(wait if wait >= 0.0 else 0.0, granted.count)
            if tracer is not None and granted.trace is not None:
                tracer.emit_span(
                    granted.trace, "queue.wait", granted.submitted_at, now,
                    channel=channel_id, count=granted.count,
                )

        def popleft() -> None:
            observe(pop())

        return popleft, observe

    def collect(self) -> tuple[float, float, float]:
        """Return and reset the rate window: (granted, enqueued, backlog)."""
        granted = self.stats.window_granted
        enqueued = self.stats.window_enqueued
        self.stats.window_granted = 0.0
        self.stats.window_enqueued = 0.0
        return granted, enqueued, self._backlog
