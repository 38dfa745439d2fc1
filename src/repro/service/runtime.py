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
* admin verbs that mutate the controller are **queued** and applied by
  the loop thread after its next tick (the ``on_tick`` hook), so a POST
  can never race ``tick()``.  Verbs that touch only thread-safe state
  (sampling rate, shutdown flag) apply synchronously, as does the whole
  queue when no loop is running (then there is no writer to race).

Wherever they run, stages are built by :func:`~repro.service.stagehost.
build_stages` from the config's ``StageLayout`` and join the controller
through :meth:`ServiceRuntime._register`.  Out-of-process mode
(``stage_procs > 0``) swaps the fabric's inner transport for a listening
:class:`~repro.net.SocketTransport` and moves every stage into supervised
``padll-repro stage-host`` children (:mod:`repro.service.hosts`).  Hosts
dial in, ask for the layout (answered on the reader thread), then PUSH
registrations and telemetry; both land on reader threads and are
*queued* onto ``_control_queue``, applied by the same loop thread as
admin verbs -- one writer, regardless of where the stages live.  A
closed connection queues the eviction of everything registered over it;
a respawned host re-registers under the same ids (takeover).
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
from repro.service.hosts import HostSupervisor, partition_stages
from repro.service.sinks import JsonlSink, SinkedEventLog
from repro.service.snapshot import build_snapshot, filter_events, filter_spans
from repro.service.stagehost import LAYOUT_ADDRESS, StageLayout, build_stages
from repro.service.workload import LiveWorkload
from repro.telemetry.export import prometheus_text
from repro.telemetry.runtime import Telemetry, TelemetryConfig
from repro.telemetry.events import Event
from repro.telemetry.trace import Span

__all__ = ["ServiceRuntime", "ADMIN_ACTIONS"]

#: Admin verbs the service accepts, with the parameters each expects.
#: Controller-mutating verbs are queued to the loop thread; the rest
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


class _LaggedHandler:
    """Endpoint shim stalling each delivery by a (seeded-jitter) delay.

    Live controller lag: the loop thread sleeps inside the RPC, so
    enforcement cycles stretch -- the fabric's deterministic latency
    model mapped onto wall time without the fabric itself ever sleeping.
    """

    def __init__(self, handler, latency: float, jitter: float, rng) -> None:
        self._handler = handler
        self._latency = latency
        self._jitter = jitter
        self._rng = rng

    def __call__(self, message):
        delay = self._latency
        if self._jitter > 0:
            delay += self._jitter * self._rng.random()
        if delay > 0:
            time.sleep(delay)
        return self._handler(message)


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
        #: Controller mutations queued for the loop thread.
        self._pending: deque = deque()
        #: Wire-originated mutations (register/evict/telemetry merge)
        #: queued for the loop thread; unlike ``_pending`` these carry no
        #: audit sequence -- they are infrastructure, not operator verbs.
        self._control_queue: deque = deque()
        self.stages: List[LiveStage] = []
        self.workload: Optional[LiveWorkload] = None
        #: Out-of-process state (``stage_procs > 0``): the listening
        #: socket transport, the host supervisor, and the per-connection
        #: bookkeeping that drives eviction and telemetry merging.
        self.transport: Optional[SocketTransport] = None
        self.hosts = None
        self.control_address: Optional[tuple] = None
        self._remote_stages: Dict[WireConnection, set] = {}
        self._remote_hosts: Dict[WireConnection, str] = {}
        #: Last absolute each connection reported, per (metric, labels);
        #: dropped with the connection, so a restarted host counts from 0.
        self._remote_last: Dict[WireConnection, Dict[tuple, Any]] = {}
        self._remote_workload: Dict[str, Dict[str, float]] = {}
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
        faults = config.faults
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
            transport.bind(LAYOUT_ADDRESS, lambda host_id: self._layout.to_wire())
            self.control_address = transport.listen(
                config.control_host,
                config.control_port,
                on_push=self._on_wire_push,
                on_close=self._on_wire_close,
            )
        self.fabric = FaultyFabric(
            link=LinkProfile(loss=faults.loss),
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
                self._register(stage.identity, StageEndpoint(stage).handle)
            if spec.rate > 0:
                self.workload = LiveWorkload(self.stages, spec, seed=config.seed)
        self.loop = LiveControlLoop(
            self.controller, clock=self.clock, on_tick=self._on_tick
        )

    def _register(self, identity: StageIdentity, handler: Callable) -> None:
        """The one way a stage joins the controller, wherever it runs:
        behind the lag shim when the fault profile asks for controller lag."""
        faults = self.config.faults
        if faults.latency > 0 or faults.jitter > 0:
            handler = _LaggedHandler(
                handler, faults.latency, faults.jitter, self._lag_rng
            )
        self.controller.register_endpoint(identity, handler, now=self.clock())

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self.loop is not None and not self.loop.running:
            self.loop.start()
        if self.workload is not None:
            self.workload.start()
        if self.config.stage_procs > 0 and self.hosts is None:
            host, port = self.control_address
            self.hosts = HostSupervisor(
                self.config, host, port, telemetry=self.telemetry, clock=self.clock
            )
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
        # The loop thread is gone: applying the remaining queues here
        # cannot race anything, and no admin action is silently lost.
        self._apply_control_queue()
        self._apply_pending()
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

    # -- remote stages (out-of-process mode) ---------------------------------
    def _on_wire_push(self, connection: WireConnection, doc: Any) -> None:
        """PUSH frames from stage hosts (reader threads): queue, don't apply."""
        if not isinstance(doc, Mapping):
            return
        kind = doc.get("kind")
        if kind == "register":
            self._queue_control(lambda: self._register_remote(connection, doc))
        elif kind == "telemetry":
            self._queue_control(lambda: self._merge_remote(connection, doc))

    def _on_wire_close(self, connection: WireConnection) -> None:
        self._queue_control(lambda: self._evict_connection(connection))

    def _queue_control(self, thunk: Callable[[], None]) -> None:
        self._control_queue.append(thunk)
        if self.loop is None or not self.loop.running:
            # No loop thread to race (embedders, tests, post-drain).
            self._apply_control_queue()

    def _apply_control_queue(self) -> None:
        while True:
            try:
                thunk = self._control_queue.popleft()
            except IndexError:
                return
            try:
                thunk()
            except ReproError as exc:
                self.telemetry.events.emit(
                    "control.remote_error", self.clock(), error=str(exc)
                )

    def _register_remote(self, connection: WireConnection, doc: Mapping) -> None:
        identity = doc.get("stage")
        host = str(doc.get("host", ""))
        if not isinstance(identity, StageIdentity):
            self.telemetry.events.emit(
                "host.register_refused",
                self.clock(),
                host=host,
                reason="missing stage identity",
            )
            return
        now = self.clock()
        stage_id = identity.stage_id
        if stage_id in self.controller.stages:
            # Takeover: a respawned host re-registers under the same id
            # before (or instead of) the old connection's eviction.
            self.controller.deregister(stage_id)
            for stages in self._remote_stages.values():
                stages.discard(stage_id)

        self._register(identity, RemoteEndpoint(connection, stage_id, None))
        self._remote_stages.setdefault(connection, set()).add(stage_id)
        self._remote_hosts[connection] = host
        self.telemetry.registry.gauge("padll_remote_host_up", host=host).set(1)
        self.telemetry.events.emit(
            "host.register", now, host=host, stage=stage_id
        )

    def _evict_connection(self, connection: WireConnection) -> None:
        """A host's link died: deregister everything it had registered.

        Idempotent -- the monitor's respawn and the socket close can both
        land here, and a takeover may already have moved a stage.
        """
        stages = self._remote_stages.pop(connection, set())
        host = self._remote_hosts.pop(connection, "")
        self._remote_last.pop(connection, None)
        if not stages:
            return
        now = self.clock()
        for stage_id in sorted(stages):
            if stage_id in self.controller.stages:
                try:
                    self.controller.deregister(stage_id)
                except ReproError:
                    pass
            self.telemetry.events.emit(
                "host.evict",
                now,
                host=host,
                stage=stage_id,
                reason="connection closed",
            )
        self.telemetry.registry.gauge("padll_remote_host_up", host=host).set(0)

    def _merge_remote(self, connection: WireConnection, doc: Mapping) -> None:
        """Fold one host's telemetry push into this world's spine.

        Metrics ship as absolutes and merge as deltas against what the
        same *connection* last reported
        (:meth:`~repro.telemetry.registry.MetricsRegistry.merge_absolutes`),
        so ``/metrics`` aggregates across hosts and a restarted host -- a
        new connection -- counts from zero.  Events and spans arrive in
        their ``to_dict`` form and append verbatim.
        """
        host = str(doc.get("host", self._remote_hosts.get(connection, "")))
        registry = self.telemetry.registry
        registry.merge_absolutes(
            doc.get("metrics", ()), self._remote_last.setdefault(connection, {})
        )
        events = self.telemetry.events
        for row in doc.get("events", ()):
            event = Event.from_dict(row)
            events.emit(event.kind, event.time, **event.fields)
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.spans.extend(Span.from_dict(row) for row in doc.get("spans", ()))
        workload = doc.get("workload")
        if workload:
            self._remote_workload[host] = dict(workload)
        registry.counter("padll_remote_pushes_total", host=host).inc()

    # -- admin plane ---------------------------------------------------------
    def _on_tick(self, now: float) -> None:
        self._apply_control_queue()
        self._apply_pending()

    def _apply_pending(self) -> None:
        while True:
            try:
                seq, action, params, apply = self._pending.popleft()
            except IndexError:
                return
            try:
                apply()
            except ReproError as exc:
                self.audit.append(action, params, ok=False, error=str(exc), seq=seq)
            else:
                self.audit.append(action, params, ok=True, seq=seq)

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
        if action in _SYNC_ACTIONS or self.loop is None or not self.loop.running:
            # No loop thread to race (or nothing loop-owned touched):
            # apply inline so the caller sees the result immediately.
            try:
                apply()
            except ReproError as exc:
                self.audit.append(action, params, ok=False, error=str(exc))
                raise
            record = self.audit.append(action, params, ok=True)
            return {"applied": True, "seq": record.seq, "action": action}
        seq = self.audit.next_seq()
        self._pending.append((seq, action, params, apply))
        return {"applied": False, "queued": True, "seq": seq, "action": action}

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
            return lambda: controller.deregister_job(job)
        if action == "stage.evict":
            stage = str(_require(params, "stage", action))
            if stage not in controller.stages:
                raise PolicyError(f"admin {action}: no stage {stage!r}")
            return lambda: controller.deregister(stage)
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
                for connection in list(self._remote_hosts):
                    try:
                        connection.push({"kind": "sampling", "rate": rate})
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
            workload: Optional[Dict[str, float]] = self.workload.counters()
        elif self._remote_workload:
            workload = {"threads": 0.0, "submitted": 0.0, "admitted": 0.0}
            for counters in self._remote_workload.values():
                for field_name in workload:
                    workload[field_name] += float(counters.get(field_name, 0))
        else:
            workload = None
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
