"""Metadata server model: capacity, queueing, saturation, failure.

The MDS serves metadata operations at a fixed capacity measured in *cost
units per second* (see :mod:`repro.pfs.costs`).  Offered work beyond the
capacity queues; a deep queue degrades service (lock thrashing, RPC
timeouts); sustained overload fails the server -- the "harm" the paper's
title is about.  A hot-standby MDS (PFS_A's configuration) can take over
after a failover delay, losing the queued work.

The API is *fluid* (:meth:`offer` / :meth:`service`): the experiment
harness runs at 10^5-10^6 ops/s, and arithmetic over a tick is
closed-form, so this path is exact, not approximate.  It agrees with a
per-request D/D/c queue of the same capacity on throughput
(``tests/pfs/test_fluid_validation.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.errors import ConfigError, MDSUnavailable
from repro.pfs.costs import OP_COSTS, op_cost

__all__ = ["MDSConfig", "MetadataServer"]

#: Fraction of capacity a degraded server retains (lock thrashing).
DEGRADE_FACTOR = 0.6
#: Continuous seconds of degraded operation after which the MDS fails.
FAIL_AFTER = 30.0

#: Plain-dict copy of the cost table: the fluid path resolves a cost per
#: offered batch, and a MappingProxyType lookup is measurably slower.
_OP_COSTS: Dict[str, float] = dict(OP_COSTS)


@dataclass(slots=True)
class MDSConfig:
    """Capacity and failure-behaviour knobs.

    Defaults are calibrated so that an all-getattr workload saturates at
    ``capacity`` ops/s, matching how we quote MDS capacity in KOps/s
    throughout the experiments.  A degraded server serves at
    :data:`DEGRADE_FACTOR` of capacity and fails after :data:`FAIL_AFTER`
    seconds of it.
    """

    #: Service capacity in cost units per second.
    capacity: float = 1_000_000.0
    #: Queue depth (in seconds of work at full capacity) beyond which the
    #: server degrades: clients see growing latency and reduced throughput.
    degrade_after: float = 2.0
    #: Whether the server can fail at all (False = infinitely patient MDS).
    can_fail: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"MDS capacity must be positive, got {self.capacity}")
        if self.degrade_after < 0:
            raise ConfigError(
                f"degrade_after must be >= 0, got {self.degrade_after}"
            )


# One offered batch awaiting service is a plain 4-slot list
# ``[slot, count, cost_per_op, arrived]``: the fluid path allocates and
# consumes one per (tick, kind, slice), so a list literal plus indexed
# reads beat any class (slots included) on both construction and access.
# ``slot`` is the kind's interned window/served index (see _window_slot),
# resolved at offer time so the service loop runs without dict lookups.
# A head-sampled batch appends its trace context as an optional 5th slot;
# only :meth:`MetadataServer._observed_popleft` looks for it.
_B_SLOT, _B_COUNT, _B_COST, _B_ARRIVED, _B_TRACE = 0, 1, 2, 3, 4


class MetadataServer:
    """One MDS instance: a cost-unit queue served at a fixed capacity."""

    def __init__(
        self, name: str = "mds0", config: Optional[MDSConfig] = None
    ) -> None:
        self.name = name
        self.config = config or MDSConfig()
        self._queue: Deque[list] = deque()
        self._queued_units = 0.0
        self._degraded_since: Optional[float] = None
        self.failed = False
        self.failed_at: Optional[float] = None
        # Cumulative served counts per interned kind; the public ``served``
        # mapping is rebuilt from this buffer on access.
        self._served_buf: list[float] = []
        # Served counts per kind since the last take_window() call, kept as
        # a preallocated buffer keyed by interned kind index.  The touch
        # list records first-touch order so take_window() can rebuild the
        # window in exactly the order a plain dict would have inserted
        # kinds (monitoring sums stay bit-identical under backlog, where
        # the first kind served in a window is not the first interned).
        self._window_index: Dict[str, int] = {}
        self._window_kinds: list[str] = []
        self._window_buf: list[float] = []
        self._window_touched: list[int] = []
        # Telemetry spine (None = off).
        self._telemetry = None
        self._m_served = None
        self._h_latency = None

    # -- telemetry ---------------------------------------------------------------
    #: Service-latency histogram edges (seconds): tick-granular queueing
    #: through failure-scale stalls.
    LATENCY_BUCKET_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0)

    def attach_telemetry(self, telemetry) -> None:
        """Create this server's metric handles (None detaches)."""
        self._telemetry = telemetry
        if telemetry is None:
            self._m_served = None
            self._h_latency = None
            return
        registry = telemetry.registry
        self._m_served = registry.counter("padll_mds_served_ops_total", mds=self.name)
        self._h_latency = registry.histogram(
            "padll_mds_service_latency_seconds", self.LATENCY_BUCKET_BOUNDS, mds=self.name
        )

    # -- state inspection ------------------------------------------------------
    @property
    def queued_units(self) -> float:
        """Backlogged work in cost units."""
        return self._queued_units

    @property
    def queue_delay(self) -> float:
        """Seconds of work currently queued (at nominal capacity)."""
        return self._queued_units / self.config.capacity

    @property
    def degraded(self) -> bool:
        return self._degraded_since is not None

    @property
    def served(self) -> Dict[str, float]:
        """Served operation counts per kind (cumulative)."""
        return {
            kind: count
            for kind, count in zip(self._window_kinds, self._served_buf)
            if count != 0.0
        }

    def take_window(self) -> Dict[str, float]:
        """Return and reset the per-kind served counts (monitoring hook)."""
        buf = self._window_buf
        kinds = self._window_kinds
        window = {}
        for i in self._window_touched:
            window[kinds[i]] = buf[i]
            buf[i] = 0.0
        self._window_touched.clear()
        return window

    def _window_slot(self, kind: str) -> int:
        """Intern ``kind`` into the window buffer; returns its index."""
        index = len(self._window_buf)
        self._window_index[kind] = index
        self._window_kinds.append(kind)
        self._window_buf.append(0.0)
        self._served_buf.append(0.0)
        return index

    # -- fluid path -------------------------------------------------------------
    def offer(self, kind: str, count: float, now: float, ctx=None) -> None:
        """Enqueue ``count`` operations of ``kind`` arriving at ``now``.

        ``ctx`` optionally carries a telemetry trace context; the batch
        then gets a 5th slot :meth:`service` closes an ``mds.service``
        span from.  Queueing arithmetic is identical either way.  A kind
        without a cost (a data kind included) is a ``ConfigError``.
        """
        if self.failed:
            raise MDSUnavailable(f"{self.name} has failed")
        if count <= 0:
            return
        cost = _OP_COSTS.get(kind)
        if cost is None:
            cost = op_cost(kind)  # raises the canonical ConfigError
        slot = self._window_index.get(kind)
        if slot is None:
            slot = self._window_slot(kind)
        if ctx is None:
            self._queue.append([slot, count, cost, now])
        else:
            self._queue.append([slot, count, cost, now, ctx])
        self._queued_units += cost * count

    def service(self, now: float, dt: float) -> float:
        """Serve up to one tick's worth of queued work; returns ops served.

        ``now`` is the *start* of the tick.  Degradation state updates
        before serving, so a tick that begins overloaded is served at the
        degraded rate for its whole duration (conservative, and stable
        under any tick size).

        With telemetry attached each served batch also feeds the
        service-latency histogram, and a head-sampled batch (5th slot)
        closes an ``mds.service`` span, followed by a ``reply`` point, at
        the instant it finishes draining.
        """
        if dt <= 0:
            raise ConfigError(f"service dt must be positive, got {dt}")
        if self.failed:
            return 0.0
        config = self.config
        rate = config.capacity
        # A healthy server below the threshold has no state to update:
        # this is ``queue_delay > degrade_after``, the test that opens
        # ``_update_degradation``, inlined.
        if (
            self._degraded_since is not None
            or self._queued_units / rate > config.degrade_after
        ):
            self._update_degradation(now, dt)
            if self.failed:
                return 0.0
            if self._degraded_since is not None:
                rate *= DEGRADE_FACTOR
        budget = rate * dt
        served_ops = 0.0
        # The drain loop pops one batch per (tick, kind, slice) submitted
        # upstream -- the single hottest loop of every fluid experiment --
        # so per-batch accounting runs on locals (written back once below),
        # and telemetry stays out of it: a batch served whole is observed
        # by the ``popleft`` that removes it, the one batch a tick can
        # serve in part is observed after the loop.
        queue = self._queue
        h_latency = self._h_latency
        popleft = queue.popleft if h_latency is None else self._observed_popleft(now)
        queued_units = self._queued_units
        served_buf = self._served_buf
        window_buf = self._window_buf
        window_touched = self._window_touched
        head = None
        while budget > 1e-12 and queue:
            head = queue[0]
            count = head[1]
            cost_per_op = head[2]
            head_units = cost_per_op * count
            if head_units <= budget:
                popleft()
                budget -= head_units
                queued_units -= head_units
            else:
                count = budget / cost_per_op
                head[1] -= count
                queued_units -= budget
                budget = 0.0
            slot = head[0]
            served_buf[slot] += count
            accumulated = window_buf[slot]
            if accumulated == 0.0:
                window_touched.append(slot)
            window_buf[slot] = accumulated + count
            served_ops += count
        self._queued_units = queued_units
        if h_latency is not None:
            if queue and queue[0] is head:
                # The last batch touched is still queued: served in part.
                arrived = head[_B_ARRIVED]
                h_latency.observe(now - arrived if now > arrived else 0.0, count)
            self._m_served.inc(served_ops)
        # Clamp accumulated float error.
        if not queue:
            self._queued_units = 0.0
        return served_ops

    def _observed_popleft(self, now: float):
        """``queue.popleft`` that reports the batch it removes as served."""
        queue = self._queue
        h_latency = self._h_latency
        tracer = self._telemetry.tracer
        name = self.name
        kinds = self._window_kinds

        def popleft() -> None:
            batch = queue.popleft()
            arrived = batch[_B_ARRIVED]
            count = batch[_B_COUNT]
            h_latency.observe(now - arrived if now > arrived else 0.0, count)
            if tracer is not None and len(batch) == 5:
                ctx = batch[_B_TRACE]
                tracer.emit_span(
                    ctx, "mds.service", arrived, now,
                    mds=name, kind=kinds[batch[_B_SLOT]], count=count,
                )
                tracer.emit_point(ctx, "reply", now, mds=name)

        return popleft

    def _update_degradation(self, now: float, dt: float) -> None:
        if self.queue_delay > self.config.degrade_after:
            if self._degraded_since is None:
                self._degraded_since = now
                if self._telemetry is not None:
                    self._telemetry.events.emit(
                        "mds.degraded", now, mds=self.name,
                        queue_delay=self.queue_delay,
                    )
            elif (
                self.config.can_fail
                and now - self._degraded_since >= FAIL_AFTER
            ):
                self.fail(now)
        else:
            if self._degraded_since is not None and self._telemetry is not None:
                self._telemetry.events.emit(
                    "mds.degradation_cleared", now, mds=self.name
                )
            self._degraded_since = None

    def fail(self, now: float) -> None:
        """Crash the server; queued operations are lost."""
        self.failed = True
        self.failed_at = now
        if self._telemetry is not None:
            self._telemetry.events.emit(
                "mds.failed", now, mds=self.name, lost_units=self._queued_units
            )
        self._queue.clear()
        self._queued_units = 0.0
        self._degraded_since = None
