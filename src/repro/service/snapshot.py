"""Pure snapshot builders for the operator service's read endpoints.

Everything here is a *function of its inputs*: no wall clocks, no RNG,
no telemetry emits.  The server threads call these against copies the
runtime takes (``RingLog.snapshot``, ``list(events)``), so a scrape can
never perturb the control loop -- the single-writer discipline pinned by
``tests/service/test_concurrent_scrape.py``.  The module is registered
as a deterministic layer in the lint config precisely because nothing in
it may ever read ``time.monotonic`` directly: the caller passes ``now``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.service.config import job_of

__all__ = [
    "SNAPSHOT_VERSION",
    "build_snapshot",
    "control_plane_view",
    "fabric_view",
    "filter_events",
    "filter_spans",
    "loop_view",
]

#: Version stamp on ``/api/v1/snapshot`` payloads.  Bump on any
#: backwards-incompatible shape change; additive fields do not bump.
SNAPSHOT_VERSION = 1


def _schedule_view(schedule: Any) -> Dict[str, Any]:
    view: Dict[str, Any] = {"type": type(schedule).__name__}
    rate = getattr(schedule, "rate", None)
    if rate is not None:
        view["rate"] = rate
    steps = getattr(schedule, "steps", None)
    if steps is not None:
        view["steps"] = [list(step) for step in steps]
    return view


def control_plane_view(controller: Any, tail: int = 32) -> Dict[str, Any]:
    """A JSON-safe summary of one control plane's current state.

    ``tail`` bounds the enforcement/eviction excerpts; the full trails
    stay queryable through the events endpoint (``control.cycle``).
    """
    jobs = {}
    for job_id, info in controller.jobs.items():
        jobs[job_id] = {
            "stages": sorted(info.stage_ids),
            "reservation": info.reservation,
            "registered_at": info.registered_at,
        }
    policies = {}
    for name, rule in controller.policies.items():
        policies[name] = {
            "channel": rule.scope.channel_id,
            "job": rule.scope.job_id,
            "priority": rule.priority,
            "enabled": rule.enabled,
            "burst": rule.burst,
            "schedule": _schedule_view(rule.schedule),
        }
    return {
        "jobs": jobs,
        "policies": policies,
        "loop_iterations": controller.loop_iterations,
        "collect_failures": controller.collect_failures,
        "collect_timeouts": controller.collect_timeouts,
        "pause_ticks": controller.pause_ticks,
        "enforcement_total": len(controller.enforcement_log)
        + controller.enforcement_log.dropped,
        "enforcement_tail": [
            list(entry) for entry in controller.enforcement_log.snapshot(tail)
        ],
        "evictions": [list(entry) for entry in controller.evictions.snapshot(tail)],
        "algorithm": (
            None if controller.algorithm is None else type(controller.algorithm).__name__
        ),
    }


def loop_view(loop: Any, now: float) -> Dict[str, Any]:
    """Liveness view of the control loop (all fields loop-thread-written)."""
    if loop is None:
        return {"attached": False, "running": False}
    age = loop.tick_age(now)
    return {
        "attached": True,
        "running": loop.running,
        "interval": loop.interval,
        "ticks": loop.ticks,
        "tick_errors": loop.tick_errors,
        "last_tick_age": age,
        "started_at": loop.started_at,
        "error": None if loop.error is None else repr(loop.error),
    }


def fabric_view(fabric: Any) -> Dict[str, Any]:
    """Counters common to every fabric; fault counters where present."""
    if fabric is None:
        return {"attached": False}
    view: Dict[str, Any] = {"attached": True, "type": type(fabric).__name__}
    for counter in ("calls", "dropped", "lost", "partitioned", "deferred"):
        value = getattr(fabric, counter, None)
        if value is not None:
            view[counter] = value
    return view


def build_snapshot(
    now: float,
    *,
    controller: Any = None,
    loop: Any = None,
    fabric: Any = None,
    audit: Optional[List[Dict[str, Any]]] = None,
    workload: Optional[Mapping[str, Any]] = None,
    telemetry_counts: Optional[Mapping[str, int]] = None,
    hosts: Optional[Mapping[str, Any]] = None,
    tail: int = 32,
) -> Dict[str, Any]:
    """The versioned document ``/api/v1/snapshot`` serves."""
    snapshot: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "now": now,
        "loop": loop_view(loop, now),
        "fabric": fabric_view(fabric),
    }
    if controller is not None:
        snapshot["control_plane"] = control_plane_view(controller, tail)
    if audit is not None:
        snapshot["audit_tail"] = audit
    if workload is not None:
        snapshot["workload"] = dict(workload)
    if telemetry_counts is not None:
        snapshot["telemetry"] = dict(telemetry_counts)
    if hosts is not None:
        snapshot["hosts"] = dict(hosts)
    return snapshot


def _matches_job(event: Any, job: str) -> bool:
    for key in ("job", "job_id", "endpoint", "stage", "address"):
        value = event.field(key)
        if value == job or (isinstance(value, str) and job_of(value) == job):
            return True
    return False


def filter_events(
    events: Sequence[Any],
    kind: Optional[str] = None,
    job: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Filter an event copy; ``limit`` keeps the *newest* matches.

    Emission order is preserved (the JSONL stream stays chronological);
    ``job`` matches the conventional field names events stamp
    (``job``/``job_id``) plus stage-style addresses like ``job/stage``.
    The walk runs newest-first and stops at ``limit`` matches, so only
    the events returned are rendered (``to_dict``) -- a query's cost is
    its answer plus the events newer than it, not the whole history.
    """
    if limit is not None and limit < 0:
        limit = None
    matched = []
    for event in reversed(events):
        if limit is not None and len(matched) >= limit:
            break
        if kind is not None and event.kind != kind:
            continue
        if since is not None and event.time < since:
            continue
        if until is not None and event.time > until:
            continue
        if job is not None and not _matches_job(event, job):
            continue
        matched.append(event)
    return [event.to_dict() for event in reversed(matched)]


def filter_spans(
    spans: Iterable[Any],
    name: Optional[str] = None,
    job: Optional[str] = None,
    stage: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Filter a span copy; ``limit`` keeps the *newest* matches."""
    matched = []
    for span in spans:
        if name is not None and span.name != name:
            continue
        if since is not None and span.end < since:
            continue
        if until is not None and span.start > until:
            continue
        if job is not None and span.attrs.get("job") != job:
            continue
        if stage is not None and span.attrs.get("stage") != stage:
            continue
        matched.append(span.to_dict())
    if limit is not None and limit >= 0:
        matched = matched[len(matched) - min(limit, len(matched)):]
    return matched
