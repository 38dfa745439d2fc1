"""Thread-safe wall-clock token bucket with blocking acquire.

Wraps the core :class:`~repro.core.token_bucket.TokenBucket` arithmetic in
a lock and adds the blocking behaviour the live layer needs: ``acquire``
sleeps for exactly the bucket-computed wait (re-checking after every
sleep, since a concurrent ``set_rate`` may shorten or lengthen it).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.core.token_bucket import UNLIMITED, TokenBucket

__all__ = ["LiveTokenBucket"]


class LiveTokenBucket:
    """A token bucket driven by the wall clock, safe across threads."""

    def __init__(
        self,
        rate: float,
        capacity: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._clock = clock
        self._sleep = sleep
        #: Guards the balance; a live channel keeps its grant counters
        #: under the same lock so an admitted call takes exactly one.
        self.lock = threading.Lock()
        self._bucket = TokenBucket(rate, capacity, now=clock())
        #: True while the rate is ``UNLIMITED`` (written under the lock).
        self.unlimited = rate == UNLIMITED

    @property
    def rate(self) -> float:
        with self.lock:
            return self._bucket.rate

    def set_rate(self, rate: float, capacity: Optional[float] = None) -> None:
        with self.lock:
            self._bucket.set_rate(rate, self._clock(), capacity)
            self.unlimited = rate == UNLIMITED

    def tokens(self) -> float:
        with self.lock:
            return self._bucket.tokens(self._clock())

    def take(self, n: float) -> bool:
        """Non-blocking acquire for a caller already holding :attr:`lock`."""
        return self._bucket.try_consume(n, self._clock())

    def try_acquire(self, n: float = 1.0) -> bool:
        """Non-blocking acquire."""
        with self.lock:
            return self.take(n)

    def acquire(self, n: float = 1.0, timeout: Optional[float] = None) -> bool:
        """Block until ``n`` tokens are available (or ``timeout`` expires).

        Returns True when the tokens were taken.  The wait is recomputed
        after every sleep so concurrent rate changes take effect
        immediately rather than at the stale deadline.
        """
        if timeout is not None and timeout < 0:
            raise ConfigError(f"timeout must be >= 0, got {timeout}")
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            with self.lock:
                now = self._clock()
                if self._bucket.try_consume(n, now):
                    return True
                wait = self._bucket.time_until(n, now)
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                wait = min(wait, remaining)
            # Cap each nap so rate increases are picked up promptly.
            self._sleep(min(wait, 0.05) if wait > 0 else 0.0)
