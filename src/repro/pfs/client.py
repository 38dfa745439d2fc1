"""PFS client: the compute-node component that issues RPCs to the MDSs.

A client accepts :class:`~repro.core.requests.Request` records (what a
data-plane stage releases downstream) and routes them: metadata-inducing
requests to the MDS of its cluster that owns the path.  Data requests,
like client-local calls, are counted and go no further -- PADLL acts
before the file system, and nothing downstream of delivery models bytes.
"""

from __future__ import annotations

from typing import Callable

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
        count = request.count
        self.submitted_ops += count
        kind = MDS_KIND_BY_OP[request.op]
        if kind is None or kind == "read" or kind == "write":
            # Client-local (e.g. lseek) or data: no metadata RPC leaves the node.
            return
        now = self._clock()
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
