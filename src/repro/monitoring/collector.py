"""Periodic probe driver: samples component counters into time series.

A :class:`Probe` converts a component's *window counters* (counts since
the last sample) into one or more named rates; the :class:`Collector`
ticks every ``period`` simulated seconds, invoking every registered probe
and appending to the matching :class:`~repro.monitoring.metrics.TimeSeries`.
This mirrors how LustrePerfMon samples per-MDT operation statistics at
1-minute intervals in the paper's study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from repro.errors import ConfigError
from repro.monitoring.metrics import TimeSeries
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker

__all__ = ["Probe", "Collector"]


@dataclass(frozen=True, slots=True)
class Probe:
    """A named sampling function.

    ``sample(now, period)`` returns a mapping of metric suffix -> value;
    each suffix becomes the series ``"{name}.{suffix}"`` (or just ``name``
    for the empty suffix).
    """

    name: str
    sample: Callable[[float, float], Mapping[str, float]]


class Collector:
    """Samples registered probes every ``period`` simulated seconds."""

    def __init__(
        self,
        env: Environment,
        period: float = 1.0,
        defer: int = 0,
        registry=None,
    ) -> None:
        if period <= 0:
            raise ConfigError(f"collector period must be positive, got {period}")
        self.env = env
        self.period = float(period)
        # Series live in a metrics registry so a telemetry spine sees the
        # collector's samples; without one the collector owns a private
        # registry and behaves exactly as before.
        if registry is None:
            from repro.telemetry.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._probes: Dict[str, Probe] = {}
        self.series: Dict[str, TimeSeries] = {}
        #: probe name -> suffix -> series, resolved once instead of a
        #: formatted-key dict lookup on every sample.
        self._probe_series: Dict[str, Dict[str, TimeSeries]] = {}
        self._ticker = Ticker(env, period, self._tick, name="collector", defer=defer)

    def add_probe(self, probe: Probe) -> None:
        if probe.name in self._probes:
            raise ConfigError(f"probe {probe.name!r} already registered")
        self._probes[probe.name] = probe

    def stop(self) -> None:
        self._ticker.stop()

    def _series(self, key: str) -> TimeSeries:
        series = self.series.get(key)
        if series is None:
            series = self.registry.timeseries(key)
            self.series[key] = series
        return series

    def _tick(self, now: float) -> None:
        for name, probe in self._probes.items():
            cache = self._probe_series.get(name)
            if cache is None:
                cache = self._probe_series[name] = {}
            sample = probe.sample(now, self.period)
            for suffix, value in sample.items():
                series = cache.get(suffix)
                if series is None:
                    key = f"{name}.{suffix}" if suffix else name
                    series = cache[suffix] = self._series(key)
                series.append(now, value)

    # -- ready-made probes ----------------------------------------------------------
    @staticmethod
    def mds_probe(name: str, mds) -> Probe:
        """Per-kind served rates (ops/s) from an MDS's window counters."""

        def sample(now: float, period: float) -> Dict[str, float]:
            window = mds.take_window()
            out = {kind: count / period for kind, count in window.items()}
            out["total"] = sum(out.values())
            out["queue_delay"] = mds.queue_delay
            return out

        return Probe(name=name, sample=sample)
