"""Export experiment series to CSV for external plotting.

Every figure harness returns named ``(times, values)`` series;
:func:`export_wide` writes them as one file with a shared time column and
one column per series (what gnuplot/pandas plotting scripts want), built
by aligning all series on the union of their timestamps.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Tuple, Union

import numpy as np

from repro.errors import ConfigError

__all__ = ["export_wide"]

SeriesMap = Mapping[str, Tuple[np.ndarray, np.ndarray]]


def export_wide(
    series: SeriesMap, path: Union[str, Path], fill: float = float("nan")
) -> Path:
    """Write all series into one CSV aligned on the union of timestamps.

    Missing samples (a series that has no point at some union timestamp)
    are written as ``fill``.
    """
    if not series:
        raise ConfigError("no series to export")
    arrays = {}
    for name, (times, values) in series.items():
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ConfigError(
                f"series {name!r}: times and values shapes differ"
            )
        arrays[name] = (times, values)
    union = np.unique(np.concatenate([t for t, _ in arrays.values()]))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = {}
    for name, (times, values) in arrays.items():
        col = np.full(union.shape, fill)
        idx = np.searchsorted(union, times)
        col[idx] = values
        columns[name] = col
    names = sorted(columns)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        for i, t in enumerate(union):
            writer.writerow(
                [f"{t:.6g}", *(f"{columns[n][i]:.6g}" for n in names)]
            )
    return path
