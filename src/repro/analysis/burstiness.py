"""Burstiness metrics.

The paper claims PADLL "prevents I/O burstiness and provides sustained
metadata performance".  We quantify that with the coefficient of
variation (std/mean) of a throughput series, taken from a plain numpy
array so it works on any series the collector produced.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["coefficient_of_variation"]


def _as_series(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigError(f"expected a 1-D series, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigError("series is empty")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("series contains non-finite values")
    return arr


def coefficient_of_variation(values) -> float:
    """std/mean of the series; 0 for a perfectly flat (sustained) rate."""
    arr = _as_series(values)
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)

