"""Workload substrate: traces, trace generation, replay, synthetic I/O.

* :mod:`repro.workloads.trace` -- the LustrePerfMon-style trace model
  (per-operation counts at fixed sample periods) with CSV/JSONL round-trip.
* :mod:`repro.workloads.abci` -- synthetic generator calibrated to every
  statistic the paper reports about PFS_A's 30-day trace.
* :mod:`repro.workloads.replayer` -- the paper's multi-threaded trace
  replayer (one thread per operation type, half-rate, 60x acceleration).
* :mod:`repro.workloads.ior` -- IOR-like synthetic data workload.
"""

from repro.workloads.abci import AbciTraceConfig, generate_aggregate_trace, generate_mdt_trace
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.replayer import ReplayDriver, TraceReplayer
from repro.workloads.trace import OpTrace

__all__ = [
    "AbciTraceConfig",
    "IORConfig",
    "IORWorkload",
    "OpTrace",
    "ReplayDriver",
    "TraceReplayer",
    "generate_aggregate_trace",
    "generate_mdt_trace",
]
