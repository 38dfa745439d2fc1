"""The :class:`Telemetry` facade a world threads through its components.

Telemetry is **off by default**: every instrumented component takes
``telemetry=None`` and guards its emit sites with a single ``is None``
check.  Hot loops exist once, with or without telemetry: they derive a
statistic from bookkeeping they keep anyway, or observe through a
wrapper around a call they already make (docs/OBSERVABILITY.md, design
rule 1), so the disabled path costs nothing measurable -- every
untraced ``bench/`` run measures it, and ``telemetry.tracing_cost_ratio``
there is the price of switching it on.  One :class:`Telemetry` instance
scopes one world: its registry, tracer, and event log are that world's
whole observable surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.telemetry.events import EventLog
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import Tracer

__all__ = ["Telemetry", "TelemetryConfig"]


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """Knobs for one world's telemetry.

    ``seed`` feeds the head sampler's hash (use the experiment seed so
    trace ids are reproducible); ``sample_rate`` is the fraction of
    classified requests that carry a trace context; ``trace=False``
    keeps the registry and event log but skips span tracing entirely
    (no head decisions, no spans; requests take the same path).
    """

    seed: int = 0
    sample_rate: float = 0.0
    trace: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigError(
                f"telemetry sample_rate must be in [0, 1], got {self.sample_rate}"
            )


class Telemetry:
    """One world's instrumentation spine: registry + tracer + events."""

    __slots__ = ("config", "registry", "tracer", "events")

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = MetricsRegistry()
        #: ``None`` unless span tracing was requested -- components check
        #: ``telemetry.tracer is not None`` to decide whether requests
        #: carry contexts.
        self.tracer: Optional[Tracer] = (
            Tracer(self.config.seed, self.config.sample_rate) if self.config.trace else None
        )
        self.events = EventLog()

    @property
    def tracing(self) -> bool:
        return self.tracer is not None
