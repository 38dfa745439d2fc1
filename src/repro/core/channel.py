"""Enforcement channel: FIFO queue + token bucket + rate window.

This is the PAIO subset PADLL is built on.  Each channel serves one set of
requests (e.g. "all metadata ops", "open calls", "requests under
/scratch/foo") at the rate its token bucket allows.  Requests enter via
:meth:`enqueue`; the stage drains channels once per tick via :meth:`drain`,
which grants as many queued operations as the bucket permits, preserving
FIFO order and splitting batches exactly at the token boundary.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ConfigError
from repro.core.requests import Request
from repro.core.token_bucket import TokenBucket, UNLIMITED

__all__ = ["Channel"]


class Channel:
    """One rate-limited queue inside a data-plane stage."""

    def __init__(
        self,
        channel_id: str,
        rate: float = UNLIMITED,
        burst: Optional[float] = None,
        *,
        now: float = 0.0,
    ) -> None:
        if not channel_id:
            raise ConfigError("channel needs an id")
        self.channel_id = channel_id
        self.bucket = TokenBucket(rate, burst, now=now)
        self._queue: Deque[Request] = deque()
        self._backlog = 0.0
        #: Ops granted / enqueued since the last :meth:`collect` -- the
        #: control loop's rate and demand signals.
        self.window_granted = 0.0
        self.window_enqueued = 0.0
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
        self.window_enqueued += request.count

    def drain(
        self,
        now: float,
        sink: Optional[Callable[[Request], None]] = None,
        telemetry=None,
    ) -> float:
        """Release queued work the bucket allows; return ops granted.

        ``sink`` receives each granted request record (batches may be
        split so that exactly the granted count flows downstream).  With
        ``telemetry`` every grant is also observed (queue-wait histogram,
        ``queue.wait`` span) before it reaches ``sink``
        (:meth:`_observers`); the grant loop itself is the same one.
        """
        queue = self._queue
        if not queue:
            self.bucket.refill(now)
            return 0.0
        popleft = queue.popleft
        observe = None
        if telemetry is not None:
            popleft, observe = self._observers(now, telemetry)
        want = self._backlog
        if want < 0.0:
            want = 0.0
        allowance = self.bucket.consume_available(want, now)
        granted = 0.0
        remaining = allowance
        while remaining > 0 and queue:
            head = queue[0]
            count = head.count
            if count <= remaining:
                popleft()
                remaining -= count
            else:
                # The granted part stands in for the head from here on.
                head, rest = head.split(remaining)
                queue[0] = rest
                count = head.count
                remaining = 0.0
                if observe is not None:
                    observe(head)
            granted += count
            if sink is not None:
                sink(head)
        # Return unused allowance to the bucket: the queue emptied first
        # (the backlog and the queued counts differ by float error).
        if remaining > 0:
            self.bucket.refund(remaining)
        self._backlog -= granted
        if not queue:
            self._backlog = 0.0  # clamp accumulated float error
        self.window_granted += granted
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
        granted = self.window_granted
        enqueued = self.window_enqueued
        self.window_granted = 0.0
        self.window_enqueued = 0.0
        return granted, enqueued, self._backlog
