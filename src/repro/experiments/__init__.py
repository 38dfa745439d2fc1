"""Experiment harness: one module per paper figure.

* :mod:`repro.experiments.fig1` -- 30-day metadata throughput at PFS_A.
* :mod:`repro.experiments.fig2` -- type and frequency of metadata ops.
* :mod:`repro.experiments.fig4` -- per-operation type/class rate limiting.
* :mod:`repro.experiments.fig5` -- per-job QoS over four concurrent jobs.
* :mod:`repro.experiments.overhead` -- passthrough-vs-baseline overhead.
* :mod:`repro.experiments.harm` -- (extension) protecting a saturable MDS.

Each module exposes a ``run_*`` function returning a typed result and a
``main()`` that prints the regenerated figure as text.
"""

from repro import lazy_exports

_EXPORTS = {
    "JobResult": "repro.experiments.harness",
    "JobSpec": "repro.experiments.harness",
    "ReplayWorld": "repro.experiments.harness",
    "Setup": "repro.experiments.harness",
    "WorldResult": "repro.experiments.harness",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
