"""Periodic callback driver.

Fluid-mode components (replayers, stages draining their queues, monitors,
the control plane's feedback loop) all run on fixed periods.  ``Ticker``
wraps the scheduling boilerplate once so those components stay as plain
callbacks, and guarantees a stable callback order *within* a tick:
callbacks registered earlier run earlier, and tickers created earlier fire
earlier at equal times.  Experiments rely on that determinism.

A ticker does not allocate an event graph per tick: each tick is a single
``(fn, arg)`` heap entry (:meth:`Environment._schedule_call`), so a
periodic tick costs one heap push.  The scheduling shape mirrors the
original generator implementation exactly -- first tick at the creation
instant in the triggered-event phase (or, with ``start > 0``, a timeout
scheduled *during* that phase), subsequent ticks in the timeout phase --
so within-instant ordering, and therefore every fixed-seed experiment
output, is unchanged.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.errors import SimulationError
from repro.simulation.engine import NORMAL, URGENT, Environment

__all__ = ["DT", "Ticker"]

#: The simulated tick, seconds: every replay, drain and service step of the
#: simulated cluster, and every fluid step of the sharded one, is one ``DT``.
DT = 1.0


class Ticker:
    """Calls ``fn(now)`` every ``period`` seconds starting at ``start``.

    The callback receives the simulated time of the tick.  ``stop()`` halts
    future ticks; a ticker whose callback raises stops and re-raises, which
    fails the simulation loudly instead of silently dropping ticks.
    """

    __slots__ = (
        "env",
        "period",
        "fn",
        "name",
        "defer",
        "_stopped",
        "_ticks",
        "_start",
        "_tick_entry",
        "_defer_priority",
    )

    def __init__(
        self,
        env: Environment,
        period: float,
        fn: Callable[[float], None],
        start: float = 0.0,
        name: str = "ticker",
        defer: int = 0,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"ticker period must be positive, got {period}")
        if start < 0:
            raise SimulationError(f"ticker start must be >= 0, got {start}")
        if defer < 0:
            raise SimulationError(f"ticker defer phase must be >= 0, got {defer}")
        self.env = env
        self.period = float(period)
        self.fn = fn
        self.name = name
        #: When non-zero, each tick's callback runs in deferral phase
        #: ``defer`` of its instant: after every normally scheduled event
        #: and after lower-phase deferrals.  Consumers of same-tick work
        #: (queue drainers at phase 1, control loops at 2, samplers at 3)
        #: use this to observe producers' output within the tick instead
        #: of one tick late, with a deterministic stage order.
        self.defer = int(defer)
        self._stopped = False
        self._ticks = 0
        self._start = float(start)
        # Reused heap payload: the heap never compares it (the sequence
        # number is unique), so one tuple serves every tick.
        self._tick_entry = (self._tick, None)
        self._defer_priority = NORMAL + self.defer
        # The boot entry fires in the triggered-event phase of the creation
        # instant (like a process boot used to), so tickers keep their
        # creation-order position relative to processes started nearby.
        env._schedule_call(self._boot, None, NORMAL)

    @property
    def ticks(self) -> int:
        """Number of completed callback invocations."""
        return self._ticks

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Prevent any further ticks (idempotent)."""
        self._stopped = True

    def _boot(self, _arg: object) -> None:
        if self._stopped:
            return
        env = self.env
        if self.defer:
            # A deferred ticker is one self-rescheduling heap entry at its
            # deferral priority: each tick costs a single push.  Ordering
            # matches the two-entry (timeout + deferral) shape it replaced:
            # ticker-origin entries of a phase precede same-instant
            # event-origin deferrals in both schemes, and same-phase
            # tickers re-push in firing order, which is creation order.
            env._seq += 1
            heappush(
                env._heap,
                (env._now + self._start, self._defer_priority, env._seq, self._tick_entry),
            )
        elif self._start > 0:
            env._seq += 1
            heappush(
                env._heap,
                (env._now + self._start, URGENT, env._seq, self._tick_entry),
            )
        else:
            self._tick(None)

    def _tick(self, _arg: object) -> None:
        if self._stopped:
            return
        env = self.env
        if self.defer:
            # Reschedule before firing: the generator implementation had
            # the next tick pending before the deferred callback ran, so a
            # raising callback leaves the ticker resumable.
            env._seq += 1
            heappush(
                env._heap,
                (env._now + self.period, self._defer_priority, env._seq, self._tick_entry),
            )
            self.fn(env._now)
            self._ticks += 1
        else:
            self.fn(env._now)
            self._ticks += 1
            env._seq += 1
            heappush(
                env._heap,
                (env._now + self.period, URGENT, env._seq, self._tick_entry),
            )
