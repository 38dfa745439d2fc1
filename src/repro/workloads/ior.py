"""IOR-like synthetic data workload.

IOR parameterises a data benchmark by transfer size, block size, segment
count and process count; the paper uses it for the read/write panels of
Fig. 4.  The fluid equivalent here emits an endless stream of read or
write requests at the rate an IOR run would offer -- 28 processes at 150
requests/s each -- with lognormal variability standing in for the
PFS-induced noise the paper notes for data operations ("since these are
being submitted to the PFS, we observe more variability").  A run lasts
as long as the panel that drives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.core.requests import OperationType, Request
from repro.pfs.client import PFS_MOUNT
from repro.simulation.engine import Environment
from repro.simulation.rng import make_rng
from repro.simulation.ticker import DT, Ticker

__all__ = ["IORConfig", "IORWorkload", "IORDriver"]

#: One process per core on a Frontera socket.
N_PROCS = 28
#: Offered request rate per process (requests/s); models client-side
#: compute between transfers.
IOPS_PER_PROC = 150.0
#: Lognormal sigma of tick-to-tick rate noise.
NOISE_SIGMA = 0.20
#: The job id and file every IOR request carries.
JOB_ID = "ior"


@dataclass(slots=True)
class IORConfig:
    """IOR-style benchmark parameters."""

    mode: str = "write"  # "write" | "read"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("read", "write"):
            raise ConfigError(f"mode must be 'read' or 'write', got {self.mode!r}")

    @property
    def offered_iops(self) -> float:
        """Aggregate offered request rate."""
        return IOPS_PER_PROC * N_PROCS


class IORWorkload:
    """Fluid demand stream for one IOR run."""

    def __init__(self, config: IORConfig) -> None:
        self.config = config
        self._rng = make_rng(config.seed)

    def demand(self, dt: float) -> float:
        """Requests offered during the next ``dt`` seconds."""
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        noise = float(np.exp(self._rng.normal(0.0, NOISE_SIGMA)))
        return self.config.offered_iops * dt * noise


class IORDriver:
    """Runs an IOR workload against a submit target inside a simulation,
    one batch every ``DT`` from the instant it is built."""

    def __init__(
        self,
        env: Environment,
        workload: IORWorkload,
        submit: Callable[[Request], None],
    ) -> None:
        self.workload = workload
        self.submit = submit
        self._op = (
            OperationType.WRITE if workload.config.mode == "write" else OperationType.READ
        )
        Ticker(env, DT, self._tick, name=f"ior-{JOB_ID}")

    def _tick(self, now: float) -> None:
        self.submit(
            Request(
                op=self._op,
                path=f"{PFS_MOUNT}/{JOB_ID}/testfile",
                job_id=JOB_ID,
                count=self.workload.demand(DT),
            )
        )
