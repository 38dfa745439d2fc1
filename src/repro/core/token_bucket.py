"""Token bucket: the rate-limiting mechanism inside every enforcement channel.

The bucket refills continuously at ``rate`` tokens/second up to ``capacity``
tokens (the burst allowance).  Two consumption styles are provided:

* :meth:`try_consume` -- all-or-nothing, for the live per-call path;
* :meth:`consume_available` -- partial grants, for the fluid per-tick path
  (grant as many of ``n`` requested tokens as are available);
* :meth:`time_until` -- closed-form wait time for ``n`` tokens, used by the
  live interposition layer to sleep exactly as long as needed.

Time is supplied by the caller (simulated or wall clock), which keeps the
bucket clock-agnostic and trivially testable.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigError

__all__ = ["TokenBucket", "UNLIMITED"]

#: Sentinel rate meaning "no throttling".
UNLIMITED = math.inf


class TokenBucket:
    """Continuous-refill token bucket.

    Parameters
    ----------
    rate:
        Refill rate in tokens per second.  ``math.inf`` disables throttling.
    capacity:
        Maximum token balance (burst size).  Defaults to one second's worth
        of tokens, which bounds burstiness to ~1 s of backlogged allowance --
        the configuration the paper's stages use for rate enforcement.

    A new bucket starts full.
    """

    __slots__ = ("_rate", "_capacity", "_tokens", "_timestamp", "_observer")

    def __init__(
        self,
        rate: float,
        capacity: Optional[float] = None,
        *,
        now: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise ConfigError(f"token bucket rate must be positive, got {rate}")
        self._rate = float(rate)
        if capacity is None:
            capacity = rate if math.isfinite(rate) else math.inf
        if capacity <= 0:
            raise ConfigError(f"token bucket capacity must be positive, got {capacity}")
        self._capacity = float(capacity)
        self._tokens = self._capacity if math.isfinite(self._capacity) else 0.0
        self._timestamp = float(now)
        self._observer = None

    # -- configuration -------------------------------------------------------
    @property
    def rate(self) -> float:
        return self._rate

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def unlimited(self) -> bool:
        """True when this bucket never throttles."""
        return math.isinf(self._rate)

    def set_rate(self, rate: float, now: float, capacity: Optional[float] = None) -> None:
        """Re-provision the bucket (control-plane rule enforcement).

        The balance is first refilled at the *old* rate up to ``now``, then
        clamped into the new capacity, so rate changes never mint or destroy
        accumulated allowance beyond the new burst bound.
        """
        if rate <= 0:
            raise ConfigError(f"token bucket rate must be positive, got {rate}")
        self.refill(now)
        self._rate = float(rate)
        if capacity is None:
            capacity = rate if math.isfinite(rate) else math.inf
        if capacity <= 0:
            raise ConfigError(f"token bucket capacity must be positive, got {capacity}")
        self._capacity = float(capacity)
        if math.isfinite(self._capacity):
            self._tokens = min(self._tokens, self._capacity)
        elif math.isinf(self._rate):
            self._tokens = math.inf
        if self._observer is not None:
            self._observer(self._rate, now)

    def set_observer(self, observer) -> None:
        """Install a ``(rate, now)`` callback fired after each re-provision.

        Telemetry uses this to record rate-limit changes at control-plane
        frequency; the consume/refill hot paths never touch the observer.
        """
        self._observer = observer

    # -- balance --------------------------------------------------------------
    def tokens(self, now: float) -> float:
        """Balance after refilling up to ``now``."""
        self.refill(now)
        return self._tokens

    def refill(self, now: float) -> None:
        """Advance the refill clock to ``now`` (monotonic; earlier is an error)."""
        if now < self._timestamp:
            raise ConfigError(
                f"token bucket clock moved backwards: {now} < {self._timestamp}"
            )
        if math.isinf(self._rate):
            self._tokens = math.inf
        else:
            self._tokens = min(
                self._capacity, self._tokens + (now - self._timestamp) * self._rate
            )
        self._timestamp = now

    # -- consumption ------------------------------------------------------------
    def try_consume(self, n: float, now: float) -> bool:
        """Take ``n`` tokens if available; return whether they were taken.

        A relative epsilon absorbs float rounding so that waiting exactly
        :meth:`time_until` always suffices (a blocked caller must not sleep
        an extra cycle over one ULP).
        """
        if n < 0:
            raise ConfigError(f"cannot consume {n} tokens")
        self.refill(now)
        eps = 1e-9 * max(1.0, n)
        if self._tokens >= n - eps or math.isinf(self._tokens):
            if math.isfinite(self._tokens):
                self._tokens = max(0.0, self._tokens - n)
            return True
        return False

    def consume_available(self, n: float, now: float) -> float:
        """Take up to ``n`` tokens; return how many were actually taken."""
        if n < 0:
            raise ConfigError(f"cannot consume {n} tokens")
        self.refill(now)
        if math.isinf(self._tokens):
            return n
        granted = min(n, self._tokens)
        self._tokens -= granted
        return granted

    def refund(self, n: float) -> None:
        """Return ``n`` unused tokens to the balance, clamped to capacity.

        Drain paths that reserve allowance up front (a channel whose queue
        emptied before the allowance did) hand the surplus back here.  Refunding an unlimited bucket is a no-op: the
        balance is already infinite, so no arithmetic is needed.
        """
        if n < 0:
            raise ConfigError(f"cannot refund {n} tokens")
        if math.isinf(self._tokens):
            return
        self._tokens = min(self._capacity, self._tokens + n)

    def time_until(self, n: float, now: float) -> float:
        """Seconds from ``now`` until ``n`` tokens will be available.

        Returns 0.0 when they already are.  ``n`` may exceed the capacity;
        in that case the wait covers the deficit at the refill rate (the
        fluid interpretation used when a whole batch must drain).
        """
        if n < 0:
            raise ConfigError(f"cannot wait for {n} tokens")
        self.refill(now)
        if math.isinf(self._tokens) or self._tokens >= n:
            return 0.0
        return (n - self._tokens) / self._rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenBucket(rate={self._rate}, capacity={self._capacity}, "
            f"tokens={self._tokens:.3f}@{self._timestamp:.3f})"
        )
