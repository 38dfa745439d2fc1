"""Operator service: a long-running live control server.

The paper's control plane has "global visibility"; this package gives
the *operator* the same: one stdlib-only HTTP server over a live
:class:`~repro.interpose.loop.LiveControlLoop` world, exposing
Prometheus metrics, span/event queries, a versioned world snapshot,
health probes, and audited admin actions (policy changes, job
rate/reservation adjustment, drain/evict, sampling control).

Module map:

* :mod:`repro.service.config`   -- :class:`ServiceConfig` + JSON loader
* :mod:`repro.service.runtime`  -- :class:`ServiceRuntime`, the world + admin plane
* :mod:`repro.service.server`   -- :class:`OperatorServer` (ThreadingHTTPServer)
* :mod:`repro.service.snapshot` -- pure snapshot/filter builders (deterministic layer)
* :mod:`repro.service.audit`    -- :class:`AuditLog` (RingLog + ``control.admin`` events)
* :mod:`repro.service.workload` -- seeded live workload driver threads
"""

from repro.service.audit import AuditLog, AuditRecord
from repro.service.config import (
    ServiceConfig,
    WorkloadSpec,
    load_service_config,
    parse_service_config,
)
from repro.service.runtime import ADMIN_ACTIONS, ServiceRuntime
from repro.service.server import OperatorServer
from repro.service.snapshot import SNAPSHOT_VERSION, build_snapshot
from repro.service.workload import LiveWorkload

__all__ = [
    "ADMIN_ACTIONS",
    "AuditLog",
    "AuditRecord",
    "LiveWorkload",
    "OperatorServer",
    "SNAPSHOT_VERSION",
    "ServiceConfig",
    "ServiceRuntime",
    "WorkloadSpec",
    "build_snapshot",
    "load_service_config",
    "parse_service_config",
]
