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

from repro import lazy_exports

_EXPORTS = {
    "ADMIN_ACTIONS": "repro.service.runtime",
    "AuditLog": "repro.service.audit",
    "AuditRecord": "repro.service.audit",
    "LiveWorkload": "repro.service.workload",
    "OperatorServer": "repro.service.server",
    "SNAPSHOT_VERSION": "repro.service.snapshot",
    "ServiceConfig": "repro.service.config",
    "ServiceRuntime": "repro.service.runtime",
    "WorkloadSpec": "repro.service.config",
    "build_snapshot": "repro.service.snapshot",
    "load_service_config": "repro.service.config",
    "parse_service_config": "repro.service.config",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
