"""Monitoring substrate: the LustrePerfMon analogue.

:class:`~repro.monitoring.metrics.TimeSeries` stores sampled values with
amortised numpy growth; :class:`~repro.monitoring.collector.Collector`
drives periodic probes over simulated components (MDS windows, per-job
delivery counters) and assembles the per-operation rate series every
figure is drawn from.
"""

from repro import lazy_exports

_EXPORTS = {
    "Collector": "repro.monitoring.collector",
    "Probe": "repro.monitoring.collector",
    "TimeSeries": "repro.monitoring.metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
