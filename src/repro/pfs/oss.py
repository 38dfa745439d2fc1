"""Object storage servers and targets: the PFS data path.

OSSs serve read/write bytes at a fixed aggregate bandwidth per server
with a shared queue, which is all Fig. 4's data panels need: an
offered-vs-served byte rate with saturation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from repro.errors import ConfigError

__all__ = ["OSTarget", "ObjectStoragePool"]


@dataclass(slots=True)
class OSTarget:
    """One OST: a capacity bucket tracking allocated bytes."""

    index: int
    capacity_bytes: int
    used_bytes: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(
                f"OST capacity must be positive, got {self.capacity_bytes}"
            )


@dataclass(slots=True)
class _IOBatch:
    kind: str  # "read" | "write"
    nbytes: float
    arrived: float


class ObjectStoragePool:
    """A set of OSSs fronting OSTs, with a fluid byte-rate service model."""

    def __init__(
        self,
        n_oss: int = 4,
        n_ost: int = 36,
        ost_capacity_bytes: int = 9_500 * 2**40 // 36,
        oss_bandwidth: float = 10 * 2**30,  # bytes/s per OSS
    ) -> None:
        if n_oss <= 0 or n_ost <= 0:
            raise ConfigError("need at least one OSS and one OST")
        if n_ost < n_oss:
            raise ConfigError(f"fewer OSTs ({n_ost}) than OSSs ({n_oss})")
        if oss_bandwidth <= 0:
            raise ConfigError(f"OSS bandwidth must be positive, got {oss_bandwidth}")
        self.n_oss = n_oss
        self.oss_bandwidth = float(oss_bandwidth)
        self.targets: List[OSTarget] = [
            OSTarget(index=i, capacity_bytes=ost_capacity_bytes) for i in range(n_ost)
        ]
        self._queue: Deque[_IOBatch] = deque()
        self._queued_bytes = 0.0
        self.served_bytes: Dict[str, float] = {"read": 0.0, "write": 0.0}
        self._window_bytes: Dict[str, float] = {"read": 0.0, "write": 0.0}

    # -- fluid data path ------------------------------------------------------------
    @property
    def total_bandwidth(self) -> float:
        return self.n_oss * self.oss_bandwidth

    @property
    def queued_bytes(self) -> float:
        return self._queued_bytes

    def offer(self, kind: str, nbytes: float, now: float) -> None:
        """Enqueue a read or write of ``nbytes`` arriving at ``now``."""
        if kind not in ("read", "write"):
            raise ConfigError(f"unknown data operation kind {kind!r}")
        if nbytes <= 0:
            return
        self._queue.append(_IOBatch(kind=kind, nbytes=nbytes, arrived=now))
        self._queued_bytes += nbytes

    def service(self, now: float, dt: float) -> float:
        """Serve queued bytes at aggregate bandwidth; returns bytes served."""
        if dt <= 0:
            raise ConfigError(f"service dt must be positive, got {dt}")
        budget = self.total_bandwidth * dt
        served = 0.0
        while budget > 1e-9 and self._queue:
            head = self._queue[0]
            if head.nbytes <= budget:
                self._queue.popleft()
                budget -= head.nbytes
                served += head.nbytes
                self._account(head.kind, head.nbytes)
            else:
                head.nbytes -= budget
                served += budget
                self._account(head.kind, budget)
                budget = 0.0
        self._queued_bytes = max(0.0, self._queued_bytes - served)
        if not self._queue:
            self._queued_bytes = 0.0
        return served

    def _account(self, kind: str, nbytes: float) -> None:
        self.served_bytes[kind] += nbytes
        self._window_bytes[kind] += nbytes

    def take_window(self) -> Dict[str, float]:
        """Return and reset per-kind served bytes (monitoring hook)."""
        window = self._window_bytes
        self._window_bytes = {"read": 0.0, "write": 0.0}
        return window
