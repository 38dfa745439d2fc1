"""The operator service's world: loop + stages + workload + admin plane.

:class:`ServiceRuntime` owns everything behind the HTTP surface: a
:class:`~repro.core.controller.ControlPlane` over a
:class:`~repro.core.fabric.FaultyFabric` (wall-clock attached, so live
partitions and loss have a timeline), :class:`~repro.interpose.
live_stage.LiveStage` data planes fed by a seeded
:class:`~repro.service.workload.LiveWorkload`, a
:class:`~repro.interpose.loop.LiveControlLoop`, and the telemetry spine
every read endpoint serves from.

Concurrency contract (pinned by ``tests/service/test_concurrent_scrape.py``):

* the **loop thread is the single writer** of control-plane state;
* server threads **read** through copies -- ``RingLog.snapshot``,
  ``list(events)``, ``list(spans)`` -- never through live iterators;
* admin verbs that mutate the controller, and wire events from stage
  hosts, go through **one queue** the loop thread drains after each
  tick (the ``on_tick`` hook), so neither a POST nor a reader thread can
  race ``tick()``.  Verbs that touch only thread-safe state (sampling
  rate, shutdown flag) apply synchronously, as does all work when no
  loop is running (then there is no writer to race).

Wherever they run, stages are built by :func:`~repro.service.stagehost.
build_stages` from the config's ``StageLayout`` and reach the one
:class:`~repro.core.controller.ControlPlane` through a local controller:
in process each job's stages join the local the plane keeps for that job
(the fabric's faults sit on that plane -> local hop, the link latency on
each stage's handler).  Out-of-process mode (``stage_procs > 0``) swaps
the fabric's inner transport for a listening
:class:`~repro.net.SocketTransport`, moves every stage into supervised
``padll-repro stage-host`` children (:mod:`repro.service.hosts`) and
makes each host a local of the plane: two requests per host per tick.  Hosts
dial in, ask for the layout (answered on the reader thread), then PUSH
registrations and telemetry (documents :mod:`repro.service.stagehost`
builds and reads); both land on reader threads and join the admin
verbs' queue -- one writer, regardless of where the stages live.  A host
is one :class:`~repro.service.hosts.HostRecord`, named by its HELLO; its
link's close detaches its local and every stage with it; a respawned
host's new link takes the name over.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from pathlib import Path

from repro.errors import ConfigError, PolicyError, ReproError, RPCError
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.algorithms import MIN_RATE, ProportionalSharing
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.config import parse_policy
from repro.core.policies import PolicyRule
from repro.core.rpc import StageEndpoint
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.interpose.loop import LiveControlLoop
from repro.net import RemoteEndpoint, SocketTransport, WireConnection
from repro.service.audit import AuditLog
from repro.service.config import ServiceConfig
from repro.service.hosts import HostRecord, HostSupervisor, partition_stages
from repro.service.sinks import JsonlSink, SinkedEventLog
from repro.service.snapshot import build_snapshot, filter_events, filter_spans
from repro.service.stagehost import (
    LAYOUT_ADDRESS, StageLayout, build_stages, deregister_push, read_push,
    sampling_push,
)
from repro.service.workload import LiveWorkload
from repro.telemetry.export import prometheus_text
from repro.telemetry.runtime import Telemetry, TelemetryConfig
from repro.telemetry.events import Event
from repro.telemetry.trace import Span

__all__ = ["ServiceRuntime", "ADMIN_ACTIONS"]

#: Admin verbs the service accepts, with the parameters each expects.
#: Controller-mutating verbs are run by the loop thread; the rest
#: apply synchronously (they touch only thread-safe state).
ADMIN_ACTIONS: Dict[str, str] = {
    "policy.set": "install or replace a constant-rate policy",
    "policy.remove": "remove a policy by name",
    "policy.enable": "enable/disable a policy by name",
    "job.rate": "cap one job's rate (high-priority job-scoped policy)",
    "job.reservation": "set a job's guaranteed rate",
    "job.drain": "clamp a job to the floor rate ahead of eviction",
    "job.evict": "deregister every stage of a job",
    "stage.evict": "deregister one stage",
    "telemetry.sampling": "set the live tracer's head-sampling rate",
    "service.shutdown": "request a graceful service shutdown",
}

_SYNC_ACTIONS = frozenset({"telemetry.sampling", "service.shutdown"})

def _require(params: Mapping[str, Any], key: str, action: str) -> Any:
    if key not in params:
        raise ConfigError(f"admin {action}: missing parameter {key!r}")
    return params[key]


def _positive_rate(value: Any, action: str) -> float:
    try:
        rate = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"admin {action}: rate must be a number, got {value!r}")
    if rate <= 0:
        raise ConfigError(f"admin {action}: rate must be positive, got {rate}")
    return rate


def _lagged(handler: Callable, link: LinkProfile, rng: random.Random) -> Callable:
    """``handler`` behind a sleep of the link's latency plus seeded jitter.

    Live controller lag: the loop thread sleeps inside the RPC, so
    enforcement cycles stretch, while the fabric (with no engine to defer
    on) never sleeps and draws nothing for latency.
    """
    if link.latency <= 0 and link.jitter <= 0:
        return handler

    def lagged(message):
        delay = link.latency
        if link.jitter > 0:
            delay += link.jitter * rng.random()
        if delay > 0:
            time.sleep(delay)
        return handler(message)

    return lagged


class ServiceRuntime:
    """One live PADLL world plus its operator/admin surface."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        *,
        controller: Optional[ControlPlane] = None,
        telemetry: Optional[Telemetry] = None,
        loop: Optional[LiveControlLoop] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock
        self._shutdown = threading.Event()
        self._shutdown_reason: Optional[str] = None
        #: Controller mutations -- admin verbs and wire events -- waiting
        #: for the loop thread (:meth:`_submit`).
        self._queue: deque = deque()
        self.stages: List[LiveStage] = []
        self.workload: Optional[LiveWorkload] = None
        #: Out-of-process state (``stage_procs > 0``): the listening
        #: socket transport and the host records with their supervisor.
        self.transport: Optional[SocketTransport] = None
        self.hosts: Optional[HostSupervisor] = None
        self.control_address: Optional[tuple] = None
        self._audit_sink: Optional[JsonlSink] = None
        self._event_sink: Optional[JsonlSink] = None
        if self.config.audit_dir is not None:
            audit_dir = Path(self.config.audit_dir)
            self._audit_sink = JsonlSink(
                audit_dir / "audit.jsonl", self.config.audit_rotate_bytes
            )
            self._event_sink = JsonlSink(
                audit_dir / "events.jsonl", self.config.audit_rotate_bytes
            )
        if controller is not None:
            # Wrapped mode: serve an externally built world (tests,
            # embedders, bench/'s service.snapshot_ms drive).  No stages
            # or workload are created.
            self.telemetry = telemetry if telemetry is not None else Telemetry()
            self.controller = controller
            self.fabric = controller.fabric
            self.loop = loop
        else:
            self.telemetry = Telemetry(
                TelemetryConfig(
                    seed=self.config.seed,
                    sample_rate=self.config.sample_rate,
                    trace=self.config.trace,
                )
            )
            if self._event_sink is not None:
                # Swap in the sinked log before any component grabs a
                # reference: every event from here on shadows to disk.
                self.telemetry.events = SinkedEventLog(self._event_sink)
            self._describe_metrics()
            self._build_world()
        self.audit = AuditLog(
            capacity=self.config.audit_capacity,
            clock=clock,
            events=self.telemetry.events,
            sink=self._audit_sink,
        )

    # -- world construction -------------------------------------------------
    def _describe_metrics(self) -> None:
        registry = self.telemetry.registry
        registry.describe(
            "padll_live_throttled_ops_total",
            "Operations admitted through live enforcement channels.",
        )
        if self.config.stage_procs > 0:
            registry.describe(
                "padll_remote_host_up",
                "1 while a stage host's control connection is open, else 0.",
            )
            registry.describe(
                "padll_remote_pushes_total",
                "Telemetry pushes merged from each stage host.",
            )

    def _build_world(self) -> None:
        config = self.config
        #: What every stage is built from, here or in a stage host.
        self._layout = StageLayout.from_config(config)
        self._lag_rng = random.Random(config.seed)
        transport = None
        if config.stage_procs > 0:
            # Out-of-process mode: stages live in stage-host children and
            # reach the fabric through a listening socket transport.  The
            # FaultyFabric decoration is unchanged -- loss/latency draws
            # happen here, over remote links exactly as over local ones.
            transport = SocketTransport(
                deadline=max(1.0, 4.0 * config.interval)
            )
            self.transport = transport
            # Read per request (reader thread): ``telemetry.sampling`` swaps it.
            transport.bind(LAYOUT_ADDRESS, lambda _: self._layout.to_wire())
            self.control_address = transport.listen(
                config.control_host,
                config.control_port,
                on_push=self._on_wire_push,
                on_close=self._on_wire_close,
            )
            self.hosts = HostSupervisor(
                config, *self.control_address, telemetry=self.telemetry, clock=self.clock
            )
        self.fabric = FaultyFabric(
            link=config.faults,
            seed=config.seed,
            telemetry=self.telemetry,
            clock=self.clock,
            transport=transport,
        )
        padll = config.padll
        if padll is not None and padll.algorithm is not None:
            algorithm = padll.algorithm
        else:
            algorithm = ProportionalSharing(capacity=config.capacity)
        self.controller = ControlPlane(
            fabric=self.fabric,
            config=ControlPlaneConfig(
                loop_interval=config.interval,
                algorithm_channel=config.channel,
            ),
            algorithm=algorithm,
            telemetry=self.telemetry,
        )
        if padll is not None:
            padll.install_on(self.controller)
        spec = config.workload
        if config.stage_procs == 0:
            self.stages = build_stages(
                partition_stages(spec.jobs, spec.stages_per_job, 1)[0],
                self._layout,
                self.clock,
                self.telemetry,
            )
            for stage in self.stages:
                handler = _lagged(StageEndpoint(stage).handle, config.faults, self._lag_rng)
                self.controller.register_endpoint(stage.identity, handler, now=self.clock())
            if spec.rate > 0:
                self.workload = LiveWorkload(self.stages, spec, seed=config.seed)
        self.loop = LiveControlLoop(
            self.controller, clock=self.clock, on_tick=lambda now: self._drain()
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self.loop is not None and not self.loop.running:
            self.loop.start()
        if self.workload is not None:
            self.workload.start()
        if self.hosts is not None:
            self.hosts.start()

    def stop(self, timeout: float = 5.0) -> Optional[BaseException]:
        """Graceful teardown; returns the loop's last error, if any."""
        error = None
        if self.hosts is not None:
            self.hosts.stop(timeout)
        if self.workload is not None:
            self.workload.stop(timeout)
        if self.loop is not None:
            error = self.loop.drain(timeout)
        if self.loop is None or not self.loop.running:
            # No loop thread to race (a stuck one drains when its tick
            # returns): no admin action is silently lost.
            self._drain()
        if self.transport is not None:
            self.transport.close()
        for sink in (self._audit_sink, self._event_sink):
            if sink is not None:
                sink.close()
        return error

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    @property
    def shutdown_reason(self) -> Optional[str]:
        return self._shutdown_reason

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        return self._shutdown.wait(timeout)

    # -- the loop thread's queue ---------------------------------------------
    def _submit(self, work: Callable[[], None]) -> bool:
        """Run ``work`` as the controller's one writer: queued for the end
        of the loop's next tick (False), or now, after what was queued
        before it, when no loop runs (True).  ``work`` reports its own
        failure: a verb in the audit trail, a wire event as a
        ``control.remote_error`` event."""
        if self.loop is not None and self.loop.running:
            self._queue.append(work)
            return False
        self._drain()
        work()
        return True

    def _drain(self) -> None:
        while True:
            try:
                work = self._queue.popleft()
            except IndexError:
                return
            try:
                work()
            except ReproError:
                pass  # audited by the verb itself; the queue goes on

    # -- remote stages (out-of-process mode) ---------------------------------
    def _on_wire_push(self, connection: WireConnection, doc: Any) -> None:
        """PUSH frames from stage hosts (reader threads): queue, don't apply."""
        read_push(
            doc,
            register=lambda identity: self._wire(
                self._register_host_stage, connection, identity
            ),
            telemetry=lambda *push: self._wire(self._merge_remote, connection, *push),
        )

    def _on_wire_close(self, connection: WireConnection) -> None:
        self._wire(self._on_closed, connection)

    def _wire(self, apply: Callable[..., None], *args: Any) -> None:
        def work() -> None:
            try:
                apply(*args)
            except ReproError as exc:
                self.telemetry.events.emit(
                    "control.remote_error", self.clock(), error=str(exc)
                )

        self._submit(work)

    def _host(self, connection: WireConnection, takeover: bool) -> Optional[HostRecord]:
        """The record ``connection``'s HELLO names, if ``connection`` is its
        link: a record with none adopts it and attaches a local over it; a
        ``takeover`` (a respawned host registering) replaces a live one.
        Anything else from a replaced link is late: None."""
        name = connection.peer
        record = self.hosts.records.setdefault(name, HostRecord(name, None))
        if record.connection is not connection:
            if record.connection is not None:
                if not takeover:
                    return None
                self._detach(record, "takeover")
            record.connection, record.last = connection, {}
            self.controller.attach_local(
                name,
                _lagged(
                    RemoteEndpoint(connection, name, None),
                    self.config.faults,
                    self._lag_rng,
                ),
            )
            self.telemetry.registry.gauge("padll_remote_host_up", host=name).set(1)
        return record

    def _detach(self, record: HostRecord, reason: str) -> None:
        """Detach a host's local from the plane, every stage with it."""
        now = self.clock()
        for stage_id in self.controller.local_stages(record.name):
            self.telemetry.events.emit(
                "host.evict", now, host=record.name, stage=stage_id, reason=reason
            )
        self.controller.detach_local(record.name)
        self.telemetry.registry.gauge("padll_remote_host_up", host=record.name).set(0)
        record.connection = record.workload = None

    def _on_closed(self, connection: WireConnection) -> None:
        """A host's link died -- unless a respawned host's took it over."""
        record = self.hosts.records.get(connection.peer)
        if record is not None and record.connection is connection:
            self._detach(record, "connection closed")

    def _register_host_stage(
        self, connection: WireConnection, identity: Optional[StageIdentity]
    ) -> None:
        if identity is None:
            self.telemetry.events.emit(
                "host.register_refused",
                self.clock(),
                host=connection.peer,
                reason="missing stage identity",
            )
            return
        record = self._host(connection, takeover=True)
        stage_id = identity.stage_id
        if stage_id in self.controller.stages:
            # Another host holds this id: it stops, hearing so.
            self._deregister(self.controller.deregister, stage_id)
        self.controller.register_stage(identity, record.name, now=self.clock())
        self.telemetry.events.emit(
            "host.register", self.clock(), host=record.name, stage=stage_id
        )

    def _deregister(self, deregister: Callable[[str], None], name: str) -> None:
        """``deregister(name)`` on the plane; every remote stage it removes
        is pushed to its host, whose local forgets it (the stage then
        rides its orphan policy, as a stage the plane stopped reaching)."""
        held = [
            (stage_id, record.connection)
            for record in self._records() if record.connection is not None
            for stage_id in self.controller.local_stages(record.name)
        ]
        deregister(name)
        stages = self.controller.stages
        for stage_id, connection in held:
            try:
                if stage_id not in stages:
                    connection.push(deregister_push(stage_id))
            except RPCError:
                pass  # a dying link: its local goes with it

    def _records(self) -> List[HostRecord]:
        """The host records, copied (any thread may read); none in process."""
        return [] if self.hosts is None else list(self.hosts.records.values())

    def _merge_remote(
        self, connection: WireConnection, metrics: Sequence[Any],
        events: Sequence[Event], spans: Sequence[Span], workload: Optional[Mapping],
    ) -> None:
        """Fold one host's telemetry push into this world's spine.

        Metrics ship as absolutes and merge as deltas against what the
        host's current *connection* last reported
        (:meth:`~repro.telemetry.registry.MetricsRegistry.merge_absolutes`),
        so ``/metrics`` aggregates across hosts and a restarted host -- a
        new connection -- counts from zero.  Events and spans append
        verbatim.
        """
        host = self._host(connection, takeover=False)
        if host is None:
            return
        registry = self.telemetry.registry
        registry.merge_absolutes(metrics, host.last)
        for event in events:
            self.telemetry.events.emit(event.kind, event.time, **event.fields)
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.spans.extend(spans)
        if workload is not None:
            host.workload = workload
        registry.counter("padll_remote_pushes_total", host=host.name).inc()

    # -- admin plane ---------------------------------------------------------
    def admin(self, action: str, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate + route one admin verb; returns the HTTP-facing result.

        Raises :class:`~repro.errors.ConfigError` (or another
        :class:`~repro.errors.ReproError`) on invalid input -- the server
        maps those to 400s and audits the refusal.
        """
        if action not in ADMIN_ACTIONS:
            raise ConfigError(f"unknown admin action {action!r}")
        params = dict(params)
        try:
            apply = self._build_apply(action, params)
        except ReproError as exc:
            self.audit.append(action, params, ok=False, error=str(exc))
            raise
        seq = self.audit.next_seq()

        def audited() -> None:
            try:
                apply()
            except ReproError as exc:
                self.audit.append(action, params, ok=False, error=str(exc), seq=seq)
                raise
            self.audit.append(action, params, ok=True, seq=seq)

        if action in _SYNC_ACTIONS:
            audited()  # nothing loop-owned touched: apply inline
        elif not self._submit(audited):
            return {"applied": False, "queued": True, "seq": seq, "action": action}
        return {"applied": True, "seq": seq, "action": action}

    def _policy(
        self, action: str, params: Mapping[str, Any], rate: Any, **doc: Any
    ) -> PolicyRule:
        """An admin verb's constant-rate rule on the verb's channel (the
        service's unless ``params`` names one), through the parser a PADLL
        document's ``policies`` go through."""
        doc["channel"] = params.get("channel") or self.config.channel
        doc["schedule"] = {"type": "constant", "rate": _positive_rate(rate, action)}
        return parse_policy(doc, f"admin {action}")

    def _build_apply(
        self, action: str, params: Mapping[str, Any]
    ) -> Callable[[], None]:
        """Validate ``params`` eagerly; return the deferred mutation."""
        controller = self.controller
        if action == "policy.set":
            name = _require(params, "name", action)
            rule = self._policy(
                action, params, _require(params, "rate", action), name=name,
                job=params.get("job"), burst=params.get("burst"),
                priority=params.get("priority", 10),
            )
            return lambda: controller.replace_policy(rule)
        if action == "policy.remove":
            name = str(_require(params, "name", action))
            return lambda: controller.remove_policy(name)
        if action == "policy.enable":
            name = str(_require(params, "name", action))
            enabled = bool(_require(params, "enabled", action))
            return lambda: controller.set_policy_enabled(name, enabled)
        if action == "job.rate":
            job = str(_require(params, "job", action))
            rule = self._policy(
                action, params, _require(params, "rate", action),
                name=f"admin:job:{job}", job=job, priority=100,
            )
            return lambda: controller.replace_policy(rule)
        if action == "job.reservation":
            job = str(_require(params, "job", action))
            if job not in controller.jobs:
                raise PolicyError(f"admin {action}: no job {job!r}")
            rate = float(_require(params, "rate", action))
            return lambda: controller.set_reservation(job, rate)
        if action == "job.drain":
            job = str(_require(params, "job", action))
            if job not in controller.jobs:
                raise PolicyError(f"admin {action}: no job {job!r}")
            rule = self._policy(
                action, params, params.get("rate", MIN_RATE),
                name=f"admin:drain:{job}", job=job, priority=1000,
            )
            return lambda: controller.replace_policy(rule)
        if action == "job.evict":
            job = str(_require(params, "job", action))
            if job not in controller.jobs:
                raise PolicyError(f"admin {action}: no job {job!r}")
            return lambda: self._deregister(controller.deregister_job, job)
        if action == "stage.evict":
            stage = str(_require(params, "stage", action))
            if stage not in controller.stages:
                raise PolicyError(f"admin {action}: no stage {stage!r}")
            return lambda: self._deregister(controller.deregister, stage)
        if action == "telemetry.sampling":
            rate = float(_require(params, "rate", action))
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"admin {action}: rate must be in [0, 1], got {rate}"
                )
            tracer = self.telemetry.tracer
            if tracer is None:
                raise ConfigError(
                    f"admin {action}: tracing is disabled for this service"
                )

            def set_sampling() -> None:
                tracer.sample_rate = rate
                if self.transport is None:
                    return
                # Remote stages are sampled by their host's tracer: tell the
                # registered hosts, and answer later ones with the new rate.
                self._layout = replace(self._layout, sample_rate=rate)
                for connection in [host.connection for host in self._records()]:
                    try:
                        if connection is not None:
                            connection.push(sampling_push(rate))
                    except RPCError:
                        pass  # a dying link; its respawn asks for the layout

            return set_sampling
        if action == "service.shutdown":
            reason = str(params.get("reason", "admin request"))

            def request_shutdown() -> None:
                self._shutdown_reason = reason
                self._shutdown.set()

            return request_shutdown
        raise ConfigError(f"unknown admin action {action!r}")  # pragma: no cover

    # -- read surface (server threads) --------------------------------------
    def metrics_text(self) -> str:
        return prometheus_text(self.telemetry.registry)

    def snapshot(self, tail: int = 32) -> Dict[str, Any]:
        telemetry_counts = {
            "events": len(self.telemetry.events.events),
            "spans": (
                0 if self.telemetry.tracer is None else len(self.telemetry.tracer.spans)
            ),
            "metrics": len(list(self.telemetry.registry.items())),
        }
        if self.workload is not None:
            workload = self.workload.counters()
        else:
            # The connected hosts' counters; list() copies under the GIL.
            workload = LiveWorkload.merge(host.workload for host in self._records())
        return build_snapshot(
            self.clock(),
            controller=self.controller,
            loop=self.loop,
            fabric=self.fabric,
            audit=self.audit.snapshot(tail),
            workload=workload,
            telemetry_counts=telemetry_counts,
            hosts=None if self.hosts is None else self.hosts.counters(),
            tail=tail,
        )

    def events(self, **filters: Any) -> List[Dict[str, Any]]:
        # list() copies under the GIL; Event objects are append-only.
        return filter_events(list(self.telemetry.events.events), **filters)

    def spans(self, **filters: Any) -> List[Dict[str, Any]]:
        tracer = self.telemetry.tracer
        spans: Sequence[Any] = [] if tracer is None else list(tracer.spans)
        return filter_spans(spans, **filters)

    def health(self) -> Dict[str, Any]:
        """The /healthz document; ``healthy`` drives the status code."""
        now = self.clock()
        loop = self.loop
        if loop is None:
            return {"healthy": False, "reason": "no control loop attached"}
        age = loop.tick_age(now)
        stale = age is not None and age > self.config.staleness_threshold
        healthy = loop.running and not stale
        reason = None
        if not loop.running:
            reason = "control loop not running"
        elif stale:
            reason = f"last tick {age:.2f}s ago (threshold {self.config.staleness_threshold:.2f}s)"
        return {
            "healthy": healthy,
            "reason": reason,
            "running": loop.running,
            "ticks": loop.ticks,
            "tick_errors": loop.tick_errors,
            "last_tick_age": age,
            "interval": loop.interval,
        }

    def ready(self) -> Dict[str, Any]:
        """The /readyz document: healthy + at least one completed tick."""
        health = self.health()
        ready = (
            health["healthy"]
            and health.get("ticks", 0) >= 1
            and not self.shutdown_requested
        )
        health["ready"] = ready
        if ready:
            health["reason"] = None
        elif health["reason"] is None:
            health["reason"] = (
                "shutdown requested" if self.shutdown_requested else "no tick yet"
            )
        return health
