"""Core discrete-event engine: environment, events, processes.

Design notes
------------
The engine is deliberately small.  Events are scheduled on a binary heap
keyed by ``(time, priority, sequence)``; the sequence number makes ordering
deterministic for events scheduled at the same instant, which in turn makes
every experiment in this repository bit-reproducible for a fixed seed.

Every simulated world in this repository is tick-driven: a
:class:`~repro.simulation.ticker.Ticker` or :meth:`Environment.call_at`
schedules a callback, and the callback moves a whole tick's work in
closed form.  The only per-request events are the control fabric's
deferred replies (:meth:`repro.core.fabric.FaultyFabric.call_async`
returns an :class:`Event` that succeeds or fails when the reply lands).

Processes are plain generators.  ``yield timeout`` suspends the process;
``yield event`` suspends until someone calls :meth:`Event.succeed` (or
``fail``); ``yield other_process`` joins on that process' termination --
SimPy's contract.  No world runs a process; :class:`Process` stays
because the repository benchmark's engine measurement drives the
timeout / event / process mix through it, so its cost stays comparable
across changes.

Fast path
---------
Besides full :class:`Event` objects, the heap carries bare ``(fn, arg)``
tuples (pushed via :meth:`Environment._schedule_call`).  They fire as a
single call with no Event allocation, no callbacks list, and no processed
bookkeeping.  Process boot, resume-after-processed-event hops and ticker
ticks all ride this path; within an instant they sort by ``(priority,
sequence)`` exactly like events do, so the execution order is identical
to the event-based implementation they replaced -- which keeps
fixed-seed experiments bit-reproducible across the optimisation.

Scaling out
-----------
This engine is single-core by design.  For cluster-scale runs (10^4
stages / 10^6 simulated clients) use :mod:`repro.simulation.sharded`,
which sidesteps the event heap entirely: closed-form fluid racks advance
as numpy array blocks and synchronise with the control plane at
epoch boundaries, with fixed-seed outputs bit-identical at any shard
count.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
]

#: Default priority for scheduled events.  Lower fires first at equal time.
NORMAL = 1
#: Priority used by Timeout events so that explicit succeed() callbacks
#: scheduled "now" run before the clock advances past them.
URGENT = 0


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulated
    time.  Triggering twice is an error -- that invariant catches a whole
    class of double-completion bugs in protocol code.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to succeed()/fail()."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        env._seq += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiters will see ``exception`` raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self._triggered else "pending")
        )
        # padll: allow(DET004) -- debugging repr, never reaches results
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__ plus scheduling: a Timeout is created for
        # every sleep, so this constructor is one of the hottest sites.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, URGENT, env._seq, self))


class Process(Event):
    """A running generator; also an event that fires on termination.

    The process' return value (``return x`` inside the generator) becomes
    the event value, so ``result = yield child_process`` works.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off at the current time (no boot Event: the
        # callback tuple fires in the same heap position one would).
        env._schedule_call(self._start, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    # -- engine internals ---------------------------------------------------
    def _start(self, _arg: Any) -> None:
        self._step(self._generator.send, None)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(self._generator.send, event._value)
        else:
            self._step(self._generator.throw, event._value)

    def _step(self, advance: Callable[[Any], Any], value: Any) -> None:
        try:
            target = advance(value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
        if target._processed:
            # Already fired: resume at this instant, after pending events.
            self.env._schedule_call(self._resume, target)
        else:
            assert target.callbacks is not None
            target.callbacks.append(self._resume)


class Environment:
    """Owner of the simulated clock and the pending-event heap."""

    def __init__(self, telemetry=None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Telemetry spine (``repro.telemetry.runtime.Telemetry`` or None).
        #: With it attached, :meth:`run` exports its call/event dispatch
        #: counts and the clock on exit.
        self._telemetry = telemetry

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Register ``generator`` as a running process."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute simulated time ``when`` (>= now)."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        evt = Timeout(self, when - self._now)
        assert evt.callbacks is not None
        evt.callbacks.append(lambda _e: fn())
        return evt

    # -- scheduling & main loop ----------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _schedule_call(
        self,
        fn: Callable[[Any], None],
        arg: Any,
        priority: int = NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Schedule a bare ``fn(arg)`` call: no Event allocation at all."""
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, (fn, arg)))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic samplers observe a
        well-defined end time.

        The dispatch loop runs with the heap and ``heappop`` bound to
        locals: it pops every single entry of every experiment, so call
        overhead here is a first-order cost.  For the same reason telemetry's dispatch counts
        are not tallied per pop: every push bumps ``_seq``, so entries
        popped = entries queued at entry + pushes - entries left, and only
        the rare Event branch keeps a tally of its own.
        """
        if until is None:
            limit = math.inf
        elif until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        else:
            limit = until
        heap = self._heap
        pop = heapq.heappop
        n_events = 0
        # Entries popped so far = unpushed + self._seq - len(heap).
        unpushed = len(heap) - self._seq
        try:
            while heap and heap[0][0] <= limit:
                when, _prio, _seq, item = pop(heap)
                self._now = when
                if item.__class__ is tuple:
                    item[0](item[1])
                    continue
                n_events += 1
                callbacks = item.callbacks
                item.callbacks = None
                item._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(item)
                elif not item._ok:
                    # A failed event nobody waited on: surface the error
                    # instead of silently swallowing it.
                    raise item._value
            if until is not None:
                self._now = float(until)
        finally:
            if self._telemetry is not None:
                n_calls = unpushed + self._seq - len(heap) - n_events
                registry = self._telemetry.registry
                registry.counter("padll_engine_dispatches_total", kind="call").inc(n_calls)
                registry.counter("padll_engine_dispatches_total", kind="event").inc(n_events)
                registry.gauge("padll_engine_sim_time_seconds").set(self._now)

