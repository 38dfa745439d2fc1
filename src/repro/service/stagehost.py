"""Out-of-process stage host: LiveStages + workload drivers in a worker.

``padll-repro stage-host`` runs this module's :class:`StageHost`: a
process holding a handful of :class:`~repro.interpose.live_stage.
LiveStage` data planes (with their synthetic workload drivers), dialing
the controller's socket fabric and *registering* its stages over the
wire -- the paper's deployment shape, where enforcement lives inside
application processes and only the control plane is centralised.  What
those stages look like, and the workload that drives them, is the
controller's to say: the host's first request over the connection it
dialed asks for the :class:`StageLayout`, and :func:`build_stages` (the
in-process world's builder too) makes the stages.

The connection is the reverse tunnel of :mod:`repro.net`: the host
dials out, binds one :class:`~repro.core.hierarchy.LocalController` over
its stages at one address -- its name, which its HELLO carries -- and
the controller's two hierarchy verbs arrive back over the same socket.
A telemetry pump thread periodically PUSHes this world's counters, events, and spans so
the operator service's ``/metrics`` and span queries cover remote
stages exactly like local ones.  This module owns both halves of the
host protocol: the layout, and the push documents (:func:`read_push`
and one builder per kind) that the host and the controller both go
through.

Losing the connection is fatal by design: the supervisor
(:mod:`repro.service.hosts`) owns restarts, and a restarted host simply
re-registers (the controller treats a duplicate registration from a new
connection as a takeover) after fetching the layout, workload included,
again.
"""

from __future__ import annotations

import os
import socket as socketlib
import threading
import time
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError, RPCError
from repro.core.config import ChannelSpec
from repro.core.differentiation import ClassifierRule
from repro.core.hierarchy import LocalController
from repro.core.requests import MDS_CLASSES
from repro.core.stage import OrphanPolicy, StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.net import SocketTransport, WireConnection
from repro.pfs.client import PFS_MOUNT
from repro.service.config import ServiceConfig, WorkloadSpec, job_of
from repro.service.workload import LiveWorkload
from repro.telemetry.events import Event
from repro.telemetry.runtime import Telemetry, TelemetryConfig
from repro.telemetry.trace import Span

__all__ = [
    "LAYOUT_ADDRESS", "StageHost", "StageLayout", "build_stages",
    "deregister_push", "read_push", "register_push", "sampling_push",
    "telemetry_push",
]

#: Period between telemetry pushes, seconds.
PUSH_INTERVAL = 0.5

#: The address a stage host asks its controller for the stage layout.
LAYOUT_ADDRESS = "padll/layout"


@dataclass(frozen=True, slots=True)
class StageLayout:
    """The stage-side settings of a :class:`ServiceConfig`, defaults resolved.

    What a stage is built from, wherever it runs: the controller derives
    it once from its config (:meth:`from_config`), builds its in-process
    stages from it, and answers :data:`LAYOUT_ADDRESS` with it
    (:meth:`to_wire`) so a stage host builds the same ones -- and drives
    them with the same ``workload`` (``rate=0`` starts no driver).
    """

    channels: Tuple[ChannelSpec, ...]
    pfs_mounts: Tuple[str, ...]
    orphan: Optional[OrphanPolicy]
    #: The controller's loop period: a stage orphans after
    #: ``orphan.orphan_after`` of them without enforcement.
    loop_interval: float
    sample_rate: float
    trace: bool
    workload: WorkloadSpec

    def __post_init__(self) -> None:
        rules = [spec.rule for spec in self.channels]
        if not rules or not all(isinstance(rule, ClassifierRule) for rule in rules):
            raise ConfigError("stage layout needs channels, each with its rule")
        if not self.pfs_mounts or not all(isinstance(m, str) for m in self.pfs_mounts):
            raise ConfigError("stage layout needs PFS mount paths")

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "StageLayout":
        """Resolve the defaults: with no policy document, one channel
        named ``config.channel`` catching every MDS-bound op
        (:data:`~repro.core.requests.MDS_CLASSES`) under
        :data:`~repro.pfs.client.PFS_MOUNT`."""
        padll = config.padll
        channels = () if padll is None else tuple(padll.channels)
        if not channels:
            name = config.channel
            rule = ClassifierRule(
                name=f"service:{name}", channel_id=name, op_classes=MDS_CLASSES
            )
            channels = (ChannelSpec(channel_id=name, rule=rule),)
        mounts = None if padll is None else padll.pfs_mounts
        return cls(
            channels=channels,
            pfs_mounts=(PFS_MOUNT,) if mounts is None else tuple(mounts),
            orphan=config.orphan,
            loop_interval=config.interval,
            sample_rate=config.sample_rate,
            trace=config.trace,
            workload=config.workload,
        )

    def to_wire(self) -> tuple:
        """Containers of types the control codec already carries."""
        return (
            tuple(
                (spec.channel_id, spec.rule, spec.initial_rate)
                for spec in self.channels
            ),
            self.pfs_mounts,
            None if self.orphan is None else astuple(self.orphan),
            self.loop_interval,
            self.sample_rate,
            self.trace,
            astuple(self.workload),
        )

    @classmethod
    def from_wire(cls, doc: Any) -> "StageLayout":
        """Inverse of :meth:`to_wire`; anything else is a ConfigError."""
        try:
            (
                channels, pfs_mounts, orphan, loop_interval, sample_rate, trace,
                workload,
            ) = doc
            return cls(
                channels=tuple(ChannelSpec(*spec) for spec in channels),
                pfs_mounts=tuple(pfs_mounts),
                orphan=None if orphan is None else OrphanPolicy(*orphan),
                loop_interval=float(loop_interval),
                sample_rate=float(sample_rate),
                trace=bool(trace),
                workload=WorkloadSpec(*workload),
            )
        except (TypeError, ValueError, ReproError) as exc:
            raise ConfigError(f"malformed stage layout: {exc}") from exc


# -- push documents ------------------------------------------------------------
# The rest of the host protocol: the documents a host and its controller
# PUSH to each other.  None names the host -- its connection's HELLO does
# (``WireConnection.peer``).


def register_push(identity: StageIdentity) -> Dict[str, Any]:
    """Host -> controller: register one stage."""
    return {"kind": "register", "stage": identity}


def telemetry_push(
    metrics: Sequence[Any], events: Sequence[Event], spans: Sequence[Span],
    workload: Optional[Mapping[str, float]],
) -> Dict[str, Any]:
    """Host -> controller: the registry's absolutes, the events and spans
    recorded since the last push, and the workload's counters (None when
    no driver runs)."""
    return {
        "kind": "telemetry",
        "metrics": metrics,
        "events": [event.to_dict() for event in events],
        "spans": [span.to_dict() for span in spans],
        "workload": workload,
    }


def sampling_push(rate: float) -> Dict[str, Any]:
    """Controller -> host: the admin plane's head-sampling rate."""
    return {"kind": "sampling", "rate": rate}


def deregister_push(stage_id: str) -> Dict[str, Any]:
    """Controller -> host: the plane deregistered this stage (an admin
    eviction); the host's local stops collecting and enforcing it."""
    return {"kind": "deregister", "stage": stage_id}


def read_push(doc: Any, **handlers: Callable[..., None]) -> None:
    """Hand a push document's contents to the handler named by its kind.

    ``register(identity)`` gets the :class:`StageIdentity`, or None when
    the document carries none; ``telemetry(metrics, events, spans,
    workload)`` gets :class:`Event` and :class:`Span` records;
    ``sampling(rate)`` a float; ``deregister(stage_id)`` a str.  A
    document that is not a mapping, or whose kind has no handler here, is
    ignored.
    """
    kind = doc.get("kind") if isinstance(doc, Mapping) else None
    handler = handlers.get(kind) if isinstance(kind, str) else None
    if handler is None:
        return
    if kind == "register":
        identity = doc.get("stage")
        handler(identity if isinstance(identity, StageIdentity) else None)
    elif kind == "telemetry":
        handler(
            doc.get("metrics", ()),
            [Event.from_dict(row) for row in doc.get("events", ())],
            [Span.from_dict(row) for row in doc.get("spans", ())],
            doc.get("workload") or None,
        )
    elif kind == "sampling":
        handler(float(doc["rate"]))
    elif kind == "deregister":
        handler(str(doc["stage"]))


def build_stages(
    stage_ids: Sequence[str],
    layout: StageLayout,
    clock: Callable[[], float],
    telemetry: Telemetry,
    **identity: Any,
) -> List[LiveStage]:
    """Build one :class:`LiveStage` per id from ``layout``.

    ``identity`` carries what only the hosting process knows about
    itself (``hostname``, ``pid``) into each :class:`StageIdentity`.
    """
    now = clock()
    stages = []
    for stage_id in stage_ids:
        stage = LiveStage(
            StageIdentity(stage_id=stage_id, job_id=job_of(stage_id), **identity),
            pfs_mounts=layout.pfs_mounts,
            clock=clock,
            telemetry=telemetry,
        )
        if layout.orphan is not None:
            stage.set_orphan_policy(layout.orphan, layout.loop_interval)
        for spec in layout.channels:
            spec.apply(stage, now=now)
        stages.append(stage)
    return stages


class StageHost:
    """One worker process's worth of live stages behind a dialed wire."""

    def __init__(
        self,
        host_id: str,
        stage_ids: Sequence[str],
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not host_id:
            raise ConfigError("stage host needs a host id")
        if not stage_ids:
            raise ConfigError("stage host needs at least one stage id")
        self.host_id = host_id
        self.clock = clock
        self._stage_ids = tuple(stage_ids)
        self._seed = seed
        self.transport = SocketTransport()
        # Both built in start(), from the layout the controller answers.
        self.telemetry: Optional[Telemetry] = None
        self.stages: List[LiveStage] = []
        self.local = LocalController(host_id)
        self.transport.bind(host_id, self.local.handle)
        self.workload: Optional[LiveWorkload] = None
        self.connection: Optional[WireConnection] = None
        self._stop = threading.Event()
        self._stopped = False
        self._disconnected = threading.Event()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"padll-host-pump-{host_id}", daemon=True
        )
        self.pushes = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        """Dial the controller, fetch the layout, build and register every
        stage, start the layout's workload."""
        self.connection = self.transport.connect(
            host,
            port,
            name=self.host_id,
            on_push=self._on_push,
            on_close=self._on_close,
            timeout=timeout,
        )
        try:
            layout = StageLayout.from_wire(
                self.connection.request(LAYOUT_ADDRESS, None)
            )
        except ReproError as exc:
            self.transport.close()
            raise ConfigError(
                f"no stage layout from the controller ({LAYOUT_ADDRESS}): {exc}"
            ) from exc
        self.telemetry = Telemetry(
            TelemetryConfig(self._seed, layout.sample_rate, trace=layout.trace)
        )
        self.stages = build_stages(
            self._stage_ids,
            layout,
            self.clock,
            self.telemetry,
            hostname=socketlib.gethostname(),
            pid=os.getpid(),
        )
        for stage in self.stages:
            self.local.register(stage)
        for stage in self.stages:
            self.connection.push(register_push(stage.identity))
        if layout.workload.rate > 0:
            self.workload = LiveWorkload(self.stages, layout.workload, seed=self._seed)
            self.workload.start()
        self._pump.start()

    def _on_push(self, connection: WireConnection, doc: Any) -> None:
        """Controller PUSH frames: the sampling rate, deregistered stages."""
        read_push(doc, sampling=self._set_sampling, deregister=self.local.deregister)

    def _set_sampling(self, rate: float) -> None:
        tracer = None if self.telemetry is None else self.telemetry.tracer
        if tracer is not None:
            tracer.sample_rate = rate

    def _on_close(self, connection: WireConnection) -> None:
        self._disconnected.set()

    @property
    def disconnected(self) -> bool:
        return self._disconnected.is_set()

    def run(self, duration: Optional[float] = None) -> int:
        """Block until stop, disconnect, or ``duration`` elapses.

        Returns a process exit code: 0 for an orderly stop, 1 when the
        controller link died underneath us (the supervisor's respawn
        signal).
        """
        deadline = None if duration is None else self.clock() + duration
        while not self._stop.is_set() and not self._disconnected.is_set():
            remaining = 0.2
            if deadline is not None:
                remaining = min(remaining, deadline - self.clock())
                if remaining <= 0:
                    break
            self._stop.wait(remaining)
        orderly = self._stop.is_set() or not self._disconnected.is_set()
        self.stop()
        return 0 if orderly else 1

    def request_stop(self) -> None:
        """Signal-handler-safe: unblocks :meth:`run`, which then stops."""
        self._stop.set()

    def stop(self, timeout: float = 5.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self.workload is not None:
            self.workload.stop(timeout)
        if self._pump.is_alive():
            self._pump.join(timeout)
        # Final flush so nothing observed between pushes is lost.
        self._push_telemetry()
        if self.connection is not None:
            self.connection.close(reason="stage host stopping")
        self.transport.close()

    # -- telemetry pump ----------------------------------------------------
    def _pump_loop(self) -> None:
        while not self._stop.wait(PUSH_INTERVAL):
            if self._disconnected.is_set():
                return
            self._push_telemetry()

    def _push_telemetry(self) -> None:
        connection = self.connection
        if connection is None or connection.closed:
            return
        events = self.telemetry.events.events
        event_end = len(events)
        tracer = self.telemetry.tracer
        spans = [] if tracer is None else tracer.spans
        span_end = len(spans)
        doc = telemetry_push(
            self.telemetry.registry.absolutes(),
            events[:event_end],
            spans[:span_end],
            None if self.workload is None else self.workload.counters(),
        )
        try:
            connection.push(doc)
        except RPCError:
            return  # link died mid-push; the lists stay whole for the next attempt
        # Shipped: the host keeps only what arrived since (appends land
        # at the tail, so the prefix is exactly what the push carried).
        del events[:event_end]
        del spans[:span_end]
        self.pushes += 1
