"""Stage-host supervisor: spawn, watch, and respawn worker processes.

``padll-repro serve`` with ``"stage_procs": N`` moves the data plane out of the
service process: the world's stages are partitioned round-robin across
``N`` ``padll-repro stage-host`` children, each dialing the service's
socket fabric and registering its stages over the wire.  This module
owns the process lifecycle only -- registration, eviction, and
telemetry merging live in :class:`~repro.service.runtime.ServiceRuntime`,
driven by the connection events the sockets already deliver.

Crash semantics: a monitor thread polls the children; an exited child
is respawned (after a short backoff) with the *same* host id and stage
list, so its re-registration reads as a takeover upstream.  Meanwhile
the broken connection has already evicted the dead host's stages from
the controller, so the window between eviction and re-registration is
the paper's "control plane lost a stage" story with real processes.

A child's argv (:meth:`HostSupervisor._argv`) carries what the process
knows about *itself* -- where to dial, host id, stage ids, seed: four
flags.  What its stages look like (channels, mounts, orphan policy,
sampling, tracing) and the workload that drives them, the host asks the
controller for over the connection it dials
(:class:`~repro.service.stagehost.StageLayout`); a respawned host asks
again.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.service.config import ServiceConfig, stage_id

__all__ = ["HostSupervisor", "partition_stages"]

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


class _Child:
    """One supervised stage-host process."""

    __slots__ = ("host_id", "argv", "process", "restarts", "respawn_at")

    def __init__(self, host_id: str, argv: List[str]) -> None:
        self.host_id = host_id
        self.argv = argv
        self.process: Optional[subprocess.Popen] = None
        self.restarts = 0
        self.respawn_at: Optional[float] = None


class HostSupervisor:
    """Spawn stage hosts against a control address; respawn on exit."""

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
        self._config = config
        self._control_host = control_host
        self._control_port = control_port
        self._clock = clock
        self._telemetry = telemetry
        self._stop = threading.Event()
        spec = config.workload
        self._children: List[_Child] = []
        for index, stage_ids in enumerate(
            partition_stages(spec.jobs, spec.stages_per_job, config.stage_procs)
        ):
            host_id = f"host{index}"
            self._children.append(
                _Child(host_id, self._argv(host_id, stage_ids, index))
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="padll-host-monitor", daemon=True
        )
        self._started = False

    def _argv(self, host_id: str, stage_ids: Sequence[str], index: int) -> List[str]:
        return [
            sys.executable, "-m", "repro.cli", "stage-host",
            "--connect", self.control_address(),
            "--host-id", host_id,
            "--stages", ",".join(stage_ids),
            "--seed", str(self._config.seed ^ (index * 0x9E3779B1)),
        ]

    def control_address(self) -> str:
        return f"{self._control_host}:{self._control_port}"

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise ConfigError("host supervisor already started")
        self._started = True
        for child in self._children:
            self._spawn(child)
        self._monitor.start()

    def _spawn(self, child: _Child) -> None:
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
                host=child.host_id,
                pid=child.process.pid,
                restarts=child.restarts,
            )

    def _monitor_loop(self) -> None:
        while not self._stop.wait(_POLL_INTERVAL):
            now = self._clock()
            for child in self._children:
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
                            host=child.host_id,
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
        for child in self._children:
            process = child.process
            if process is None or process.poll() is not None:
                continue
            process.terminate()
        deadline = time.monotonic() + timeout
        for child in self._children:
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
        alive = sum(
            1
            for child in self._children
            if child.process is not None and child.process.poll() is None
        )
        return {
            "hosts": len(self._children),
            "alive": alive,
            "restarts": sum(child.restarts for child in self._children),
        }

    def pids(self) -> Dict[str, Optional[int]]:
        return {
            child.host_id: (
                None if child.process is None else child.process.pid
            )
            for child in self._children
        }
