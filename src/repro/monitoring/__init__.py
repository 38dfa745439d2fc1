"""Monitoring substrate: the LustrePerfMon analogue.

:class:`~repro.monitoring.metrics.TimeSeries` stores sampled values with
amortised numpy growth; :class:`~repro.monitoring.collector.Collector`
drives periodic probes over simulated components (MDS windows, per-job
delivery counters) and assembles the per-operation rate series every
figure is drawn from.
"""

from repro.monitoring.collector import Collector, Probe
from repro.monitoring.metrics import TimeSeries

__all__ = ["Collector", "Probe", "TimeSeries"]
