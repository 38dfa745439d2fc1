"""Per-endpoint collect sessions: the control loop's async state machine.

Over a fabric that answers in line, the control loop's collect phase is
a synchronous walk -- one ``fabric.call`` per endpoint per tick.  Over a
fabric that defers the collect (an engine attached, see
:meth:`~repro.core.fabric.FaultyFabric.defers`) that shape cannot work:
a reply arrives after latency, or never (a lost reply is
indistinguishable from a dead stage).  A :class:`CollectSession` tracks
one endpoint's in-flight statistics request through an explicit
lifecycle:

``idle`` -> *issue* (``call_async``) -> ``pending`` -> one of

* **reply**: the event fires; the session stores the stats stamped with
  the engine time of arrival (so the allocator can see their *age*),
* **failure**: the endpoint raised; recorded, retried like a timeout,
* **timeout**: the deadline passes with no reply; the session abandons
  the request (bumping an epoch so a late reply is ignored) and either
  schedules a retry with exponential backoff or -- once retries are
  exhausted -- reports a *miss* to the liveness accounting.

All transitions happen at control-tick boundaries driven by the owning
:class:`~repro.core.controller.ControlPlane`; the only engine-time work
is the reply callback writing into the session.  Nothing here reads a
wall clock or draws a random number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["CollectSession"]

_NEG_INF = float("-inf")


@dataclass(slots=True)
class CollectSession:
    """Lifecycle state for one endpoint's statistics collection."""

    endpoint: str
    #: The in-flight request's Event, or None when idle.
    pending: Optional[Any] = None
    issued_at: float = _NEG_INF
    #: Earliest time a new request may be issued (backoff gate).
    next_attempt_at: float = _NEG_INF
    #: Issues since the last successful reply.
    attempt: int = 0
    #: Bumped when a request is abandoned; stale replies are discarded.
    epoch: int = 0
    #: True when the endpoint failed the last request (cleared each tick).
    failed: bool = False
    #: Most recent successful reply and its arrival (engine) time.
    stats: Any = None
    stats_at: float = _NEG_INF

    def issue(self, fabric, message: Any, now: float) -> None:
        """Fire one async request and arm the reply callback."""
        self.attempt += 1
        self.issued_at = now
        epoch = self.epoch
        event = fabric.call_async(self.endpoint, message)
        self.pending = event

        def on_reply(evt, _sess=self, _epoch=epoch) -> None:
            if _sess.epoch != _epoch:
                return  # reply to an abandoned request: ignore
            _sess.pending = None
            if evt.ok:
                _sess.attempt = 0
                _sess.stats = evt.value
                _sess.stats_at = evt.env.now
            else:
                _sess.failed = True

        # The event is freshly created and untriggered, so its callbacks
        # list is live; attaching here also keeps a failed reply from
        # surfacing as an unhandled engine error.
        event.callbacks.append(on_reply)

    def abandon(self) -> None:
        """Forget the in-flight request; its late reply will be ignored."""
        self.epoch += 1
        self.pending = None
