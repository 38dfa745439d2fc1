"""Stage hosts: one record per host name, and the supervisor that runs them.

``padll-repro serve`` with ``"stage_procs": N`` moves the data plane out of the
service process: the world's stages are partitioned round-robin across
``N`` ``padll-repro stage-host`` children, each dialing the service's
socket fabric and registering its stages over the wire.  A host is one
:class:`HostRecord` under its name: the process this module spawns and
respawns, and the connection (and local controller) that
:class:`~repro.service.runtime.ServiceRuntime` keeps for it.

Crash semantics: a monitor thread polls the children; an exited child
is respawned (after a short backoff) under the *same* name and stage
list, so its re-registration reads as a takeover upstream.  Meanwhile
the broken connection has already detached the dead host's local, and
its stages, from the controller, so the window between detachment and
re-registration is the paper's "control plane lost a stage" story with
real processes.

A child's argv carries what the process knows about *itself* -- where
to dial, host id, stage ids, seed: four flags.  What its stages look
like (channels, mounts, orphan policy, sampling, tracing) and the
workload that drives them, the host asks the controller for over the
connection it dials (:class:`~repro.service.stagehost.StageLayout`); a
respawned host asks again.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.service.config import ServiceConfig, stage_id

__all__ = ["HostRecord", "HostSupervisor", "partition_stages"]

_POLL_INTERVAL = 0.2
_RESPAWN_BACKOFF = 0.5


def partition_stages(
    jobs: int, stages_per_job: int, stage_procs: int
) -> List[List[str]]:
    """Round-robin the world's stage ids across ``stage_procs`` hosts.

    Stage ids follow the in-process world's naming
    (:func:`~repro.service.config.stage_id`), so an operator can flip
    between ``"stage_procs": 0`` and ``N`` without any query or policy
    changing its addressing.
    """
    if stage_procs < 1:
        raise ConfigError(f"need >= 1 stage proc, got {stage_procs}")
    buckets: List[List[str]] = [[] for _ in range(stage_procs)]
    index = 0
    for j in range(jobs):
        for s in range(stages_per_job):
            buckets[index % stage_procs].append(stage_id(j, s))
            index += 1
    return [bucket for bucket in buckets if bucket]


class HostRecord:
    """One stage host, by name.  The monitor thread writes its process
    (``argv`` None: not spawned here); the runtime's loop thread its link:
    ``connection`` (the plane's local of the same name is attached while
    it is set), and the metric absolutes (``last``) and workload counters
    it last pushed."""

    def __init__(self, name: str, argv: Optional[List[str]]) -> None:
        self.name = name
        self.argv = argv
        self.process: Optional[subprocess.Popen] = None
        self.restarts = 0
        self.respawn_at: Optional[float] = None
        self.connection: Any = None
        self.last: Dict[tuple, Any] = {}
        self.workload: Optional[Dict[str, float]] = None


class HostSupervisor:
    """The world's host records; spawns its hosts against a control
    address and respawns one that exits."""

    def __init__(
        self,
        config: ServiceConfig,
        control_host: str,
        control_port: int,
        *,
        telemetry=None,
        clock=time.monotonic,
    ) -> None:
        if config.stage_procs < 1:
            raise ConfigError(
                f"supervisor needs stage_procs >= 1, got {config.stage_procs}"
            )
        self._clock = clock
        self._telemetry = telemetry
        self._stop = threading.Event()
        spec = config.workload
        #: name -> record; the supervised hosts first, in spawn order.
        self.records: Dict[str, HostRecord] = {}
        for index, stage_ids in enumerate(
            partition_stages(spec.jobs, spec.stages_per_job, config.stage_procs)
        ):
            host_id = f"host{index}"
            self.records[host_id] = HostRecord(host_id, [
                sys.executable, "-m", "repro.cli", "stage-host",
                "--connect", f"{control_host}:{control_port}",
                "--host-id", host_id,
                "--stages", ",".join(stage_ids),
                "--seed", str(config.seed ^ (index * 0x9E3779B1)),
            ])
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="padll-host-monitor", daemon=True
        )
        self._started = False

    def _supervised(self) -> List[HostRecord]:
        return [record for record in list(self.records.values()) if record.argv]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for record in self._supervised():
            self._spawn(record)
        self._monitor.start()

    def _spawn(self, child: HostRecord) -> None:
        env = dict(os.environ)
        # The children import repro with ``-m``; make sure the package's
        # parent directory is importable even when the service itself was
        # launched through an entry point.
        import repro

        package_parent = os.path.dirname(os.path.dirname(repro.__file__))
        existing = env.get("PYTHONPATH", "")
        if package_parent not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_parent + os.pathsep + existing if existing else package_parent
            )
        child.process = subprocess.Popen(child.argv, env=env)
        child.respawn_at = None
        if self._telemetry is not None:
            self._telemetry.events.emit(
                "host.spawn",
                self._clock(),
                host=child.name,
                pid=child.process.pid,
                restarts=child.restarts,
            )

    def _monitor_loop(self) -> None:
        while not self._stop.wait(_POLL_INTERVAL):
            now = self._clock()
            for child in self._supervised():
                process = child.process
                if process is None:
                    continue
                code = process.poll()
                if code is None:
                    continue
                if child.respawn_at is None:
                    if self._telemetry is not None:
                        self._telemetry.events.emit(
                            "host.exit",
                            now,
                            host=child.name,
                            pid=process.pid,
                            code=code,
                        )
                    child.respawn_at = now + _RESPAWN_BACKOFF
                elif now >= child.respawn_at:
                    child.restarts += 1
                    self._spawn(child)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._monitor.is_alive():
            self._monitor.join(timeout)
        children = self._supervised()
        for child in children:
            process = child.process
            if process is None or process.poll() is not None:
                continue
            process.terminate()
        deadline = time.monotonic() + timeout
        for child in children:
            process = child.process
            if process is None:
                continue
            try:
                process.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(1.0)

    # -- read surface ------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        children = self._supervised()
        return {
            "hosts": len(children),
            "alive": sum(
                child.process is not None and child.process.poll() is None
                for child in children
            ),
            "restarts": sum(child.restarts for child in children),
        }
