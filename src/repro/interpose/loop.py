"""Threaded feedback loop driving a ControlPlane against live stages.

The simulated experiments tick the control plane from the event engine;
the live layer needs a real thread doing the same at wall-clock
intervals.  :class:`LiveControlLoop` wraps a
:class:`~repro.core.controller.ControlPlane` in a daemon thread calling
``tick(time.monotonic())`` every ``controller.config.loop_interval``
seconds until stopped -- the plane's one statement of its period.

The loop also exposes the lifecycle surface the operator service
(:mod:`repro.service`) reads from its server threads: cumulative tick
counts, the clock stamp of the most recent tick (liveness = "how stale
is the last cycle"), and an optional per-tick hook.  All of it is
written only by the loop thread -- readers take snapshots, never locks.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.core.controller import ControlPlane

__all__ = ["LiveControlLoop"]


class LiveControlLoop:
    """Runs a control plane's feedback loop on a background thread."""

    def __init__(
        self,
        controller: ControlPlane,
        clock: Callable[[], float] = time.monotonic,
        on_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.controller = controller
        self._clock = clock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Most recent exception raised by a tick.  The loop *keeps
        #: running* after a failed tick (a transient RPC error must not
        #: kill enforcement forever); the latest error is re-raised by
        #: :meth:`stop` so callers cannot miss that ticks were failing.
        self.error: BaseException | None = None
        #: Number of ticks that raised (cumulative).
        self.tick_errors = 0
        #: Tick attempts so far (clean + failed); written by the loop
        #: thread only, safe for any reader to poll.
        self.ticks = 0
        #: Clock stamp taken after the most recent tick attempt (None
        #: until the first tick lands).  ``clock() - last_tick_at`` is
        #: the liveness signal the service's /healthz endpoint reports.
        self.last_tick_at: Optional[float] = None
        #: Clock stamp of :meth:`start` (None until started).
        self.started_at: Optional[float] = None
        #: Called as ``on_tick(now)`` after every tick attempt, from the
        #: loop thread.  Hook exceptions are recorded like tick errors --
        #: an observer must not be able to kill enforcement either.
        self.on_tick = on_tick

    @property
    def interval(self) -> float:
        """Seconds between ticks: the controller's ``loop_interval``."""
        return self.controller.config.loop_interval

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def last_error(self) -> BaseException | None:
        """The most recent tick exception (None = all ticks clean)."""
        return self.error

    def tick_age(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last tick attempt (None before the first).

        Safe to call from any thread; ``now`` defaults to this loop's
        own clock so age and stamps share a timeline.
        """
        last = self.last_tick_at
        if last is None:
            return None
        return (self._clock() if now is None else now) - last

    def start(self) -> None:
        if self.running:
            raise ConfigError("control loop already running")
        self._stop.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="padll-control-loop", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0, reraise: bool = True) -> None:
        """Stop the loop thread and join it.

        ``reraise=False`` is the graceful-shutdown form the operator
        service uses: the latest tick error stays inspectable on
        :attr:`error` instead of unwinding the server teardown path.  A
        tick that outlives ``timeout`` is that error, and the thread is
        kept: the loop stays :attr:`running` (its last tick ends it), so
        :meth:`start` cannot add a second writer.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                self.error = ConfigError(f"tick still running {timeout}s after stop")
            else:
                self._thread = None
        if reraise and self.error is not None:
            raise self.error

    def drain(self, timeout: float = 5.0) -> Optional[BaseException]:
        """Graceful shutdown: stop without raising; return the last error."""
        self.stop(timeout, reraise=False)
        return self.error

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            now = self._clock()
            try:
                self.controller.tick(now)
            except BaseException as exc:  # recorded; surfaced by stop()
                self.error = exc
                self.tick_errors += 1
            self.ticks += 1
            self.last_tick_at = self._clock()
            hook = self.on_tick
            if hook is not None:
                try:
                    hook(now)
                except BaseException as exc:
                    self.error = exc
                    self.tick_errors += 1

    def __enter__(self) -> "LiveControlLoop":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
