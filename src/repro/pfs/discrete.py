"""Per-request (discrete-event) metadata service.

The experiment harness uses the *fluid* MDS model for tractability at
10^5-10^6 ops/s.  This module provides the per-request counterpart -- a
thread pool (:class:`~repro.simulation.resources.Resource`), per-operation
service times from the same cost model, and real lock acquisition with
backoff on conflicts -- used to

* validate the fluid approximation (same capacity, same offered load ->
  same throughput; see ``tests/pfs/test_discrete.py``), and
* measure request *latency* distributions, which the fluid model only
  approximates via queue depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, MDSUnavailable
from repro.pfs.costs import op_cost
from repro.pfs.locks import LOCK_MODES, LockMode, LockTable
from repro.simulation.engine import Environment, Process
from repro.simulation.resources import Resource

__all__ = ["DiscreteMDSConfig", "DiscreteMDS", "ClosedLoopClient"]

#: Backoff before retrying a conflicting lock acquisition, seconds.
LOCK_RETRY = 1e-3


@dataclass(slots=True)
class DiscreteMDSConfig:
    """Service parameters for the per-request MDS."""

    #: Aggregate service capacity in cost units per second (matches the
    #: fluid model's ``MDSConfig.capacity``).
    capacity: float = 10_000.0
    #: Number of concurrent service threads.
    n_threads: int = 16

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {self.capacity}")
        if self.n_threads < 1:
            raise ConfigError(f"need at least one thread, got {self.n_threads}")

    @property
    def per_thread_rate(self) -> float:
        """Cost units per second each thread serves."""
        return self.capacity / self.n_threads


class DiscreteMDS:
    """A per-request MDS: threads, service times, locks."""

    def __init__(
        self, env: Environment, config: Optional[DiscreteMDSConfig] = None
    ) -> None:
        self.env = env
        self.config = config or DiscreteMDSConfig()
        self.threads = Resource(env, capacity=self.config.n_threads)
        self.locks = LockTable()
        self.failed = False
        self.served: Dict[str, int] = {}
        #: Completion latencies of every served request (seconds).
        self.latencies: List[float] = []
        self.lock_retries = 0

    def service_time(self, kind: str) -> float:
        """Seconds one thread spends serving one operation of ``kind``."""
        cost = op_cost(kind)
        if cost == 0.0:
            return 0.0
        return cost / self.config.per_thread_rate

    @property
    def queue_length(self) -> int:
        return self.threads.queue_length

    def submit(self, kind: str, *paths: str) -> Process:
        """Issue one request; the returned process yields its latency.

        ``paths`` are the namespace entries the operation locks; when no
        path applies (statfs, sync) the root is locked in the operation's
        mode.
        """
        if self.failed:
            raise MDSUnavailable("discrete MDS has failed")
        mode = LOCK_MODES.get(kind)
        if mode is None:
            raise ConfigError(f"unknown MDS operation kind {kind!r}")
        lock_paths = list(paths) or ["/"]
        return self.env.process(
            self._serve(kind, mode, lock_paths), name=f"mds-{kind}"
        )

    def _serve(self, kind: str, mode: LockMode, paths: Sequence[str]):
        start = self.env.now
        slot = self.threads.request()
        yield slot
        try:
            while True:
                try:
                    grant = self.locks.acquire(paths, mode)
                    break
                except ConfigError:
                    self.lock_retries += 1
                    yield self.env.timeout(LOCK_RETRY)
            try:
                yield self.env.timeout(self.service_time(kind))
            finally:
                self.locks.release(grant)
        finally:
            self.threads.release(slot)
        self.served[kind] = self.served.get(kind, 0) + 1
        latency = self.env.now - start
        self.latencies.append(latency)
        return latency

    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def total_served(self) -> int:
        return sum(self.served.values())


#: Requests a :class:`ClosedLoopClient` keeps outstanding.
CLIENT_DEPTH = 16


class ClosedLoopClient:
    """A client that keeps :data:`CLIENT_DEPTH` ``getattr`` requests
    outstanding (like a real multi-threaded application blocked on
    syscalls)."""

    def __init__(self, env: Environment, mds: DiscreteMDS) -> None:
        self.mds = mds
        self.completed = 0
        self._stopped = False
        self._workers = [
            env.process(self._worker(i), name=f"client-{i}")
            for i in range(CLIENT_DEPTH)
        ]

    def stop(self) -> None:
        self._stopped = True

    def _worker(self, index: int):
        # Distinct paths per worker avoid artificial write-lock convoys.
        path = f"/c/w{index}"
        while not self._stopped:
            yield self.mds.submit("getattr", path)
            self.completed += 1
