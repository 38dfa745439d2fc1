"""Shared simulated resources: capacity-limited servers.

The queueing primitive the per-request PFS model is built from: a
:class:`~repro.pfs.discrete.DiscreteMDS` is a :class:`Resource` whose
slots are its service threads.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.simulation.engine import Environment, Event

__all__ = ["Resource"]


class Resource:
    """A server pool with ``capacity`` identical slots and a FIFO wait queue.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending (ungranted) requests."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for a slot; the event fires when the slot is granted."""
        evt = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed(self)
        else:
            self._waiters.append(evt)
        return evt

    def release(self, _request: Event) -> None:
        """Return a slot; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a held slot")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1
