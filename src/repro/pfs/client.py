"""PFS client: the compute-node component that issues RPCs to MDS/OSSs.

A client accepts :class:`~repro.core.requests.Request` records (what a
data-plane stage releases downstream) and routes them: metadata-inducing
requests to the active MDS of its cluster, data requests to the OSS pool.
This is the ``sink`` a :class:`~repro.core.stage.DataPlaneStage` is wired
to in every simulated experiment.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MDSUnavailable
from repro.core.requests import MDS_KIND_BY_OP, Request

__all__ = ["PFS_MOUNT", "PFSClient"]

#: Where a simulated compute node mounts the PFS: every simulated job,
#: replayer and IOR run reads and writes under it.
PFS_MOUNT = "/pfs"


class PFSClient:
    """One compute node's file-system client."""

    def __init__(self, cluster: "LustreCluster", name: str = "client0") -> None:  # noqa: F821
        self.cluster = cluster
        self.name = name
        #: Requests this client could not deliver because the MDS was down.
        self.failed_ops = 0.0
        self.submitted_ops = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._telemetry = None
        self._m_failed = None

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock (requests are stamped on arrival)."""
        self._clock = clock

    def attach_telemetry(self, telemetry) -> None:
        """Wire delivery-failure accounting into a telemetry spine."""
        self._telemetry = telemetry
        self._m_failed = (
            None
            if telemetry is None
            else telemetry.registry.counter(
                "padll_client_failed_ops_total", client=self.name
            )
        )

    def submit(self, request: Request) -> None:
        """Deliver one request (or batch) to the file system."""
        self.submit_kind(request, MDS_KIND_BY_OP[request.op])

    def submit_kind(self, request: Request, kind: Optional[str]) -> None:
        """Deliver ``request`` whose MDS kind the caller already resolved.

        Hot-path variant of :meth:`submit`: delivery sinks look the kind up
        once per request for their own window accounting and pass it along
        instead of re-deriving it here.
        """
        now = self._clock()
        count = request.count
        self.submitted_ops += count
        if kind is None:
            # Client-local call (e.g. lseek): nothing leaves the node.
            return
        if kind == "read" or kind == "write":
            nbytes = max(request.size, 1) * count
            self.cluster.oss_pool.offer(kind, nbytes, now)
            return
        mds = self.cluster.mds_for_path(request.path, now)
        if mds is None:
            self._undeliverable(kind, count, now)
            return
        try:
            # The trace context (if this request was head-sampled) rides
            # into the MDS queue so service can close the span.
            mds.offer(kind, count, now, request.trace)
        except MDSUnavailable:
            self._undeliverable(kind, count, now)

    def _undeliverable(self, kind: str, count: float, now: float) -> None:
        self.failed_ops += count
        self.cluster.buffer_for_replay(kind, count)
        self.note_failure(kind, count, now)

    def note_failure(self, kind: str, count: float, now: float) -> None:
        """Report ``count`` undeliverable ops of ``kind`` to telemetry.

        The replay harness, which keeps ``failed_ops`` per slice itself,
        calls this once per kind per tick with the tick's total.
        """
        if self._telemetry is None:
            return
        self._m_failed.inc(count)
        self._telemetry.events.emit(
            "client.mds_unavailable", now, client=self.name, kind=kind, count=count
        )
