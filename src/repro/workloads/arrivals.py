"""Arrival processes and admission gates for per-request simulations.

The discrete-event experiments need two recurring pieces this module
factors out:

* **arrival processes** -- open-loop request generators (deterministic or
  Poisson) driving a callback at a configured rate;
* **admission gates** -- awaitable rate limiters for closed-loop callers
  (the virtual-scheduling form of a token bucket: grants are slots on a
  shared timeline spaced ``1/rate`` apart, plus an optional burst).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigError
from repro.simulation.engine import Environment, Event, Process
from repro.simulation.rng import make_rng

__all__ = ["open_loop_arrivals", "AdmissionGate"]


def open_loop_arrivals(
    env: Environment,
    rate: float,
    fire: Callable[[int], None],
    *,
    stop_at: Optional[float] = None,
    poisson: bool = False,
    seed: int = 0,
    name: str = "arrivals",
) -> Process:
    """Drive ``fire(index)`` at ``rate`` per second until ``stop_at``.

    Deterministic spacing by default; ``poisson=True`` draws exponential
    inter-arrival gaps (seeded, reproducible).  Returns the generator
    process so callers can join it.
    """
    if rate <= 0:
        raise ConfigError(f"arrival rate must be positive, got {rate}")
    if stop_at is not None and stop_at < env.now:
        raise ConfigError(f"stop_at {stop_at} is in the past")
    rng = make_rng(seed) if poisson else None

    def run():
        index = 0
        while stop_at is None or env.now < stop_at:
            fire(index)
            index += 1
            gap = (
                float(rng.exponential(1.0 / rate)) if rng is not None
                else 1.0 / rate
            )
            yield env.timeout(gap)

    return env.process(run(), name=name)


class AdmissionGate:
    """An awaitable rate limiter for closed-loop simulated callers.

    Uses virtual scheduling: the i-th admission is granted at
    ``max(now, previous_grant + 1/rate)``, with up to ``burst`` grants
    allowed to share an instant.  Equivalent to a token bucket in the
    fluid limit, but expressed as per-request grant events the engine's
    processes can ``yield`` on.
    """

    def __init__(self, env: Environment, rate: float, burst: int = 1) -> None:
        if rate <= 0:
            raise ConfigError(f"gate rate must be positive, got {rate}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.env = env
        self._interval = 1.0 / rate
        self._burst = int(burst)
        # GCRA theoretical arrival time: the virtual clock of admissions.
        self._tat = env.now
        self.granted = 0

    @property
    def rate(self) -> float:
        return 1.0 / self._interval

    def set_rate(self, rate: float) -> None:
        """Re-provision the gate (takes effect for future grants)."""
        if rate <= 0:
            raise ConfigError(f"gate rate must be positive, got {rate}")
        self._interval = 1.0 / rate

    def acquire(self) -> Event:
        """Return an event that fires when the caller is admitted.

        GCRA: the virtual clock advances one interval per grant; a caller
        is admitted as soon as the virtual clock lags real time by no
        more than the burst allowance.
        """
        tat = max(self._tat, self.env.now)
        grant_at = max(self.env.now, tat - (self._burst - 1) * self._interval)
        self._tat = tat + self._interval
        self.granted += 1
        evt = self.env.event()
        self.env.call_at(grant_at, lambda: evt.succeed())
        return evt
