"""Control-plane policy grammar.

Administrators express *what* should be throttled and *at which rate over
time*.  A :class:`PolicyRule` binds a scope (which jobs, which channel) to a
:class:`RateSchedule` (constant or stepped).  The control plane evaluates
active rules every feedback-loop iteration and pushes the resulting rates
to the matching stages.

Stepped schedules are the paper's Fig. 4 mechanism: "a static rate whose
value changes every N minutes upon instruction of the system administrator".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import PolicyError

__all__ = [
    "RateSchedule",
    "ConstantRate",
    "SteppedRate",
    "RuleScope",
    "PolicyRule",
]


class RateSchedule:
    """Maps simulated time to a target rate (ops/s).  Subclass contract:
    :meth:`rate_at` must be defined for all t >= 0."""

    def rate_at(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ConstantRate(RateSchedule):
    """A single static rate for the whole execution."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise PolicyError(f"rate must be positive, got {self.rate}")

    def rate_at(self, t: float) -> float:
        return self.rate


class SteppedRate(RateSchedule):
    """Piecewise-constant schedule: ``[(start_time, rate), ...]``.

    The first step must start at 0.  Steps must be strictly increasing in
    time.  ``math.inf`` is a legal rate ("unthrottled during this step").
    """

    __slots__ = ("_starts", "_rates")

    def __init__(self, steps: Sequence[tuple[float, float]]) -> None:
        if not steps:
            raise PolicyError("stepped schedule needs at least one step")
        starts = [float(t) for t, _ in steps]
        rates = [float(r) for _, r in steps]
        if starts[0] != 0.0:
            raise PolicyError(f"first step must start at t=0, got {starts[0]}")
        for a, b in zip(starts, starts[1:]):
            if b <= a:
                raise PolicyError(f"step times must strictly increase ({a} -> {b})")
        for r in rates:
            if r <= 0:
                raise PolicyError(f"step rates must be positive, got {r}")
        self._starts = starts
        self._rates = rates

    @classmethod
    def every(cls, period: float, rates: Sequence[float]) -> "SteppedRate":
        """Convenience: change the rate every ``period`` seconds.

        ``SteppedRate.every(360, [10e3, 50e3, 20e3])`` reproduces the
        paper's "value changes every 6 minutes" administrator behaviour.
        """
        if period <= 0:
            raise PolicyError(f"step period must be positive, got {period}")
        return cls([(i * period, r) for i, r in enumerate(rates)])

    @property
    def steps(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._starts, self._rates))

    def rate_at(self, t: float) -> float:
        if t < 0:
            raise PolicyError(f"schedule queried at negative time {t}")
        idx = bisect_right(self._starts, t) - 1
        return self._rates[idx]


@dataclass(frozen=True, slots=True)
class RuleScope:
    """Which (job, channel) pairs a policy applies to.

    ``job_id=None`` means every registered job (cluster-wide rule);
    ``channel_id`` names the enforcement channel inside each matching
    stage (stages without that channel ignore the rule).
    """

    channel_id: str
    job_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.channel_id:
            raise PolicyError("rule scope needs a channel id")

    def applies_to_job(self, job_id: str) -> bool:
        return self.job_id is None or self.job_id == job_id


@dataclass(slots=True)
class PolicyRule:
    """A named, scoped rate schedule installed on the control plane."""

    name: str
    scope: RuleScope
    schedule: RateSchedule
    #: Optional burst override; None lets the bucket default to 1 s of rate.
    burst: Optional[float] = None
    #: Rules with higher priority win when several target the same channel.
    priority: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("policy rule needs a name")
        if self.burst is not None and self.burst <= 0:
            raise PolicyError(f"burst must be positive, got {self.burst}")

    def rate_at(self, t: float) -> float:
        return self.schedule.rate_at(t)
