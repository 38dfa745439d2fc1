"""Cluster wiring: MDSs (hot standby or DNE), clients, service loop.

Mirrors PFS_A's metadata configuration from the paper's trace study: 2
MDSs in hot-standby (one active, one standby that takes over after a
failover delay).  Data ops end at the client (:mod:`repro.pfs.client`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigError, MDSUnavailable
from repro.pfs.client import PFSClient
from repro.pfs.mds import MDSConfig, MetadataServer

__all__ = ["ClusterConfig", "LustreCluster"]

#: Seconds for the standby to take over after the active MDS fails.
FAILOVER_DELAY = 30.0


@dataclass(slots=True)
class ClusterConfig:
    """Metadata servers of a simulated Lustre-like deployment."""

    n_mds: int = 2  # active + hot standby, PFS_A's layout
    mds: MDSConfig = field(default_factory=MDSConfig)
    #: Metadata service layout (section II): "hot-standby" keeps one MDS
    #: active with the rest as replicas; "dne" (Distributed NamEspace)
    #: makes every MDS active, each managing the part of the namespace
    #: its hash bucket covers -- aggregate metadata capacity scales with
    #: n_mds, but a failed server takes its subtree offline (no standby).
    mds_mode: str = "hot-standby"

    def __post_init__(self) -> None:
        if self.n_mds < 1:
            raise ConfigError("need at least one MDS")
        if self.mds_mode not in ("hot-standby", "dne"):
            raise ConfigError(f"unknown MDS mode {self.mds_mode!r}")


class LustreCluster:
    """A complete simulated PFS deployment."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self._clock: Callable[[], float] = lambda: 0.0
        self.mds_servers: List[MetadataServer] = [
            MetadataServer(name=f"mds{i}", config=self.config.mds)
            for i in range(self.config.n_mds)
        ]
        #: The server in service (hot standby) or the one ``active_mds``
        #: checks first (DNE).  While it is healthy, reading it here is
        #: ``active_mds``; once it has failed only ``active_mds`` --
        #: which starts and finishes the failover timer -- may replace it.
        self.active: MetadataServer = self.mds_servers[0]
        self._failover_ready_at: Optional[float] = None
        self.clients: List[PFSClient] = []
        self.failovers = 0
        #: kind -> op count awaiting replay to the next healthy MDS.
        self._replay_buffer: dict[str, float] = {}
        self.replayed_ops = 0.0

    # -- clock ------------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        for client in self.clients:
            client.set_clock(clock)

    # -- clients ------------------------------------------------------------------
    def new_client(self, name: Optional[str] = None) -> PFSClient:
        client = PFSClient(self, name or f"client{len(self.clients)}")
        client.set_clock(self._clock)
        self.clients.append(client)
        return client

    # -- MDS routing -----------------------------------------------------------------
    def mds_for_path(self, path: str, now: float) -> Optional[MetadataServer]:
        """The MDS responsible for ``path``.

        Hot-standby mode ignores the path (one active server).  DNE mode
        buckets the namespace by its top-level directory: each MDS owns a
        shard, and a failed server leaves its shard unserved (there is no
        standby -- the section-II trade-off between capacity and blast
        radius).
        """
        if self.config.mds_mode == "hot-standby":
            active = self.active
            return active if not active.failed else self.active_mds(now)
        shard = self._shard_index(path)
        mds = self.mds_servers[shard]
        return None if mds.failed else mds

    def _shard_index(self, path: str) -> int:
        parts = [p for p in path.split("/") if p]
        top = parts[0] if parts else ""
        # Stable across processes (unlike hash()) so experiments reproduce.
        digest = 0
        for ch in top:
            digest = (digest * 131 + ord(ch)) % (2**31)
        return digest % len(self.mds_servers)

    # -- MDS failover --------------------------------------------------------------
    def active_mds(self, now: float) -> Optional[MetadataServer]:
        """The MDS currently serving, handling hot-standby takeover.

        Returns None while no replica is available (active failed and the
        standby is still replaying the MDT state).
        """
        active = self.active
        if not active.failed:
            return active
        # Active is down: find a healthy standby.
        standby = next((m for m in self.mds_servers if not m.failed), None)
        if standby is None:
            return None
        if self._failover_ready_at is None:
            self._failover_ready_at = now + FAILOVER_DELAY
        if now >= self._failover_ready_at:
            self.active = standby
            self._failover_ready_at = None
            self.failovers += 1
            return standby
        return None

    # -- outage replay ------------------------------------------------------------
    def buffer_for_replay(self, kind: str, count: float) -> None:
        """Hold an operation issued during an outage for later replay.

        Lustre clients hold requests issued during an MDS outage and
        *replay* them to the replacement server at takeover, so the whole
        outage backlog arrives as one burst -- the recovery storm.
        """
        if count <= 0:
            return
        self._replay_buffer[kind] = self._replay_buffer.get(kind, 0.0) + count

    @property
    def pending_replay_ops(self) -> float:
        return sum(self._replay_buffer.values())

    def _flush_replay(self, mds: MetadataServer, now: float) -> None:
        """Deliver the whole outage backlog to the recovered server.

        Real clients replay their queued requests as fast as the network
        allows, so the backlog arrives as one burst -- the recovery storm
        the failover experiment studies.
        """
        buffered = self._replay_buffer
        self._replay_buffer = {}
        for kind, count in buffered.items():
            try:
                mds.offer(kind, count, now)
                self.replayed_ops += count
            except MDSUnavailable:  # died mid-replay: keep the rest queued
                self.buffer_for_replay(kind, count)

    # -- service loop ------------------------------------------------------------
    def service(self, now: float, dt: float) -> float:
        """Advance the metadata servers by one tick; returns ops served."""
        served = 0.0
        if self.config.mds_mode == "dne":
            for mds in self.mds_servers:
                if not mds.failed:
                    served += mds.service(now, dt)
        else:
            mds = self.active
            if mds.failed:
                mds = self.active_mds(now)
            if mds is not None:
                if self._replay_buffer:
                    self._flush_replay(mds, now)
                served = mds.service(now, dt)
        return served
