"""Trace model: per-operation counts over fixed-period samples.

This is the shape of a LustrePerfMon export (the paper's data source):
per-MDT performance statistics for each operation kind, captured at
1-minute samples.  An :class:`OpTrace` holds a ``(n_samples, n_kinds)``
count matrix plus the sample period, with numpy-vectorised statistics and
CSV/JSONL round-trips so the replayer can consume real exports unchanged.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import TraceFormatError

__all__ = ["OpTrace"]


def _open_trace(path: Path, **kwargs):
    """Open a trace file for reading; a missing one is a TraceFormatError."""
    try:
        return path.open(**kwargs)
    except FileNotFoundError:
        raise TraceFormatError(f"trace file not found: {path}") from None


class OpTrace:
    """Counts of each operation kind per sample period.

    ``counts[i, k]`` is the number of operations of kind ``kinds[k]``
    observed during sample ``i`` (a window of ``sample_period`` seconds).
    """

    def __init__(
        self,
        kinds: Sequence[str],
        counts: np.ndarray,
        sample_period: float = 60.0,
        start_time: float = 0.0,
    ) -> None:
        kinds = tuple(kinds)
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2:
            raise TraceFormatError(f"counts must be 2-D, got shape {counts.shape}")
        if counts.shape[1] != len(kinds):
            raise TraceFormatError(
                f"{counts.shape[1]} count columns for {len(kinds)} kinds"
            )
        if len(set(kinds)) != len(kinds):
            raise TraceFormatError(f"duplicate kinds in {kinds}")
        if sample_period <= 0:
            raise TraceFormatError(f"sample period must be positive, got {sample_period}")
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise TraceFormatError("counts must be finite and non-negative")
        self.kinds = kinds
        self.counts = counts
        self.sample_period = float(sample_period)
        self.start_time = float(start_time)

    # -- shape ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.counts.shape[0]

    @property
    def duration(self) -> float:
        """Covered time span in seconds."""
        return self.n_samples * self.sample_period

    def __len__(self) -> int:
        return self.n_samples

    def kind_index(self, kind: str) -> int:
        try:
            return self.kinds.index(kind)
        except ValueError:
            raise TraceFormatError(f"trace has no kind {kind!r}") from None

    # -- statistics ---------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Sample start times in seconds."""
        return self.start_time + np.arange(self.n_samples) * self.sample_period

    def rates(self, kind: Optional[str] = None) -> np.ndarray:
        """Per-sample throughput in ops/s (aggregate or one kind)."""
        if kind is None:
            return self.counts.sum(axis=1) / self.sample_period
        return self.counts[:, self.kind_index(kind)] / self.sample_period

    def total(self, kind: Optional[str] = None) -> float:
        # counts has a fixed (duration x kinds) shape per trace, so
        # these integer-valued reductions are order-stable.
        if kind is None:
            return float(self.counts.sum())  # padll: allow(FLT001)
        return float(self.counts[:, self.kind_index(kind)].sum())  # padll: allow(FLT001)

    def mean_rate(self, kind: Optional[str] = None) -> float:
        return self.total(kind) / self.duration

    def peak_rate(self, kind: Optional[str] = None) -> float:
        rates = self.rates(kind)
        return float(rates.max()) if rates.size else 0.0

    def shares(self) -> Dict[str, float]:
        """Fraction of total operations per kind (Fig. 2's quantity)."""
        # Same fixed-shape, integer-valued reduction as total() above.
        total = self.counts.sum()  # padll: allow(FLT001)
        if total == 0:
            return {k: 0.0 for k in self.kinds}
        sums = self.counts.sum(axis=0)
        return {k: float(s / total) for k, s in zip(self.kinds, sums)}

    # -- transforms ---------------------------------------------------------------
    def select(self, kinds: Sequence[str]) -> "OpTrace":
        """Sub-trace keeping only the given kinds."""
        idx = [self.kind_index(k) for k in kinds]
        return OpTrace(
            tuple(kinds),
            self.counts[:, idx].copy(),
            sample_period=self.sample_period,
            start_time=self.start_time,
        )

    def scale(self, factor: float) -> "OpTrace":
        """Scale every count (the paper's 'scaled-down to half' step)."""
        if factor < 0:
            raise TraceFormatError(f"scale factor must be >= 0, got {factor}")
        return OpTrace(
            self.kinds,
            self.counts * factor,
            sample_period=self.sample_period,
            start_time=self.start_time,
        )

    # -- persistence -----------------------------------------------------------------
    def save_csv(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", *self.kinds])
            for t, row in zip(self.times(), self.counts):
                writer.writerow([f"{t:.3f}", *(f"{c:.6g}" for c in row)])

    @classmethod
    def load_csv(cls, path: Union[str, Path], sample_period: Optional[float] = None) -> "OpTrace":
        path = Path(path)
        with _open_trace(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceFormatError(f"{path} is empty") from None
            if not header or header[0] != "time":
                raise TraceFormatError(f"{path}: first column must be 'time'")
            kinds = tuple(header[1:])
            times: List[float] = []
            rows: List[List[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise TraceFormatError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    times.append(float(row[0]))
                    rows.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise TraceFormatError(f"{path} holds no samples")
        if sample_period is None:
            sample_period = times[1] - times[0] if len(times) > 1 else 60.0
        return cls(
            kinds,
            np.array(rows),
            sample_period=sample_period,
            start_time=times[0],
        )

    def save_jsonl(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with path.open("w") as fh:
            fh.write(
                json.dumps(
                    {
                        "kinds": list(self.kinds),
                        "sample_period": self.sample_period,
                        "start_time": self.start_time,
                    }
                )
                + "\n"
            )
            for row in self.counts:
                fh.write(json.dumps([round(float(v), 6) for v in row]) + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "OpTrace":
        path = Path(path)
        with _open_trace(path) as fh:
            try:
                header = json.loads(fh.readline())
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}: bad header: {exc}") from None
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise TraceFormatError(f"{path} holds no samples")
        return cls(
            tuple(header["kinds"]),
            np.array(rows, dtype=np.float64),
            sample_period=float(header["sample_period"]),
            start_time=float(header.get("start_time", 0.0)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpTrace):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.sample_period == other.sample_period
            and self.start_time == other.start_time
            and self.counts.shape == other.counts.shape
            and bool(np.allclose(self.counts, other.counts))
        )
