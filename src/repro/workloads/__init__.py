"""Workload substrate: traces, trace generation, replay, synthetic I/O.

* :mod:`repro.workloads.trace` -- the LustrePerfMon-style trace model
  (per-operation counts at fixed sample periods) with CSV/JSONL round-trip.
* :mod:`repro.workloads.abci` -- synthetic generator calibrated to every
  statistic the paper reports about PFS_A's 30-day trace.
* :mod:`repro.workloads.replayer` -- the paper's multi-threaded trace
  replayer (one thread per operation type, half-rate, 60x acceleration).
* :mod:`repro.workloads.ior` -- IOR-like synthetic data workload.
"""

from repro import lazy_exports

_EXPORTS = {
    "AbciTraceConfig": "repro.workloads.abci",
    "IORConfig": "repro.workloads.ior",
    "IORWorkload": "repro.workloads.ior",
    "OpTrace": "repro.workloads.trace",
    "ReplayDriver": "repro.workloads.replayer",
    "TraceReplayer": "repro.workloads.replayer",
    "generate_aggregate_trace": "repro.workloads.abci",
    "generate_mdt_trace": "repro.workloads.abci",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
