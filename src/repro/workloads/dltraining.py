"""Deep-learning training I/O workload (the paper's motivating application).

Section I/II: modern DL training jobs read TiB-scale datasets made of
millions of small files (FMA, OpenImages), generating "high and
continuous bursts of metadata operations".  The access pattern per epoch:

1. **indexing burst** -- the input pipeline lists and stats the dataset
   to build/shuffle its file index (a getattr storm proportional to the
   dataset size, delivered as fast as the FS allows);
2. **steady consumption** -- worker processes stream samples:
   open -> read -> close per file, at the rate the training step time
   sustains.

Both a fluid per-tick interface (:meth:`DLTrainingWorkload.demand`) and a
discrete per-operation iterator (:meth:`DLTrainingWorkload.epoch_ops`,
for the interposition layer and per-request simulations) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigError
from repro.core.requests import OperationType, Request
from repro.pfs.client import PFS_MOUNT
from repro.simulation.engine import Environment
from repro.simulation.rng import make_rng
from repro.simulation.ticker import Ticker

__all__ = ["DLTrainingConfig", "DLTrainingWorkload", "DLTrainingDriver"]


@dataclass(slots=True)
class DLTrainingConfig:
    """Shape of one training job's I/O."""

    n_files: int = 100_000
    epochs: int = 3
    #: Samples (files) consumed per second by the training pipeline.
    samples_per_sec: float = 2_000.0
    #: Rate at which the indexing pass can issue getattrs (pipeline-bound).
    index_rate: float = 50_000.0
    #: Dataset root inside the PFS mount.
    dataset_dir: str = f"{PFS_MOUNT}/dataset"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ConfigError(f"need at least one file, got {self.n_files}")
        if self.epochs < 1:
            raise ConfigError(f"need at least one epoch, got {self.epochs}")
        if self.samples_per_sec <= 0:
            raise ConfigError("samples_per_sec must be positive")
        if self.index_rate <= 0:
            raise ConfigError("index_rate must be positive")

    @property
    def index_duration(self) -> float:
        """Seconds one indexing burst lasts."""
        return self.n_files / self.index_rate

    @property
    def consume_duration(self) -> float:
        """Seconds one epoch's sample consumption lasts."""
        return self.n_files / self.samples_per_sec

    @property
    def epoch_duration(self) -> float:
        return self.index_duration + self.consume_duration

    @property
    def total_duration(self) -> float:
        return self.epochs * self.epoch_duration


class DLTrainingWorkload:
    """Fluid and discrete views of the training job's I/O stream."""

    def __init__(self, config: DLTrainingConfig) -> None:
        self.config = config

    # -- fluid interface ---------------------------------------------------------
    def demand(self, t: float, dt: float) -> Dict[str, float]:
        """Operation counts offered during [t, t+dt), by MDS kind.

        Piecewise-constant per phase; a tick straddling a phase boundary
        integrates each phase's rates over its overlap, so totals are
        conserved under any tick size.
        """
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        out = {"getattr": 0.0, "open": 0.0, "close": 0.0, "read": 0.0}
        lo, hi = t, t + dt
        config = self.config
        for epoch in range(config.epochs):
            e0 = epoch * config.epoch_duration
            idx_end = e0 + config.index_duration
            ep_end = e0 + config.epoch_duration
            # Indexing overlap: getattr at index_rate.
            overlap = min(hi, idx_end) - max(lo, e0)
            if overlap > 0:
                out["getattr"] += config.index_rate * overlap
            # Consumption overlap: open/read/close at samples_per_sec.
            overlap = min(hi, ep_end) - max(lo, idx_end)
            if overlap > 0:
                for kind in ("open", "read", "close"):
                    out[kind] += config.samples_per_sec * overlap
        return out

    def total_ops(self) -> Dict[str, float]:
        n = float(self.config.n_files * self.config.epochs)
        return {"getattr": n, "open": n, "close": n, "read": n}

    # -- discrete interface -----------------------------------------------------------
    def file_path(self, index: int) -> str:
        return f"{self.config.dataset_dir}/sample-{index:08d}"

    def epoch_ops(self, epoch: int) -> Iterator[Tuple[OperationType, str]]:
        """The exact operation sequence of one epoch (shuffled per epoch)."""
        if not 0 <= epoch < self.config.epochs:
            raise ConfigError(
                f"epoch {epoch} outside [0, {self.config.epochs})"
            )
        rng = make_rng((self.config.seed, epoch))
        order = rng.permutation(self.config.n_files)
        # Indexing pass (directory scan order, not shuffled).
        for i in range(self.config.n_files):
            yield OperationType.STAT, self.file_path(i)
        # Shuffled consumption.
        for i in order:
            path = self.file_path(int(i))
            yield OperationType.OPEN, path
            yield OperationType.READ, path
            yield OperationType.CLOSE, path


class DLTrainingDriver:
    """Submits a training workload into a simulation, tick by tick."""

    KIND_TO_OP = {
        "getattr": OperationType.STAT,
        "open": OperationType.OPEN,
        "close": OperationType.CLOSE,
        "read": OperationType.READ,
    }

    def __init__(
        self,
        env: Environment,
        workload: DLTrainingWorkload,
        submit,
        job_id: str = "train",
        dt: float = 1.0,
        start: float = 0.0,
    ) -> None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.env = env
        self.workload = workload
        self.submit = submit
        self.job_id = job_id
        self.dt = float(dt)
        self.start = float(start)
        self.submitted: Dict[str, float] = {}
        self.finished_at: Optional[float] = None
        self._ticker = Ticker(
            env, dt, self._tick, start=max(0.0, self.start - env.now),
            name=f"dl-{job_id}",
        )

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def _tick(self, now: float) -> None:
        t = now - self.start
        if t >= self.workload.config.total_duration:
            if self.finished_at is None:
                self.finished_at = now
            self._ticker.stop()
            return
        for kind, count in self.workload.demand(t, self.dt).items():
            if count <= 0:
                continue
            self.submit(
                Request(
                    op=self.KIND_TO_OP[kind],
                    path=f"{self.workload.config.dataset_dir}/batch",
                    job_id=self.job_id,
                    count=count,
                )
            )
            self.submitted[kind] = self.submitted.get(kind, 0.0) + count
