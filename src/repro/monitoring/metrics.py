"""Time-series storage.

A :class:`TimeSeries` is an append-only (time, value) log backed by numpy
arrays grown geometrically (amortised O(1) appends, vectorised reads) --
the profile-guided choice for series that receive one point per simulated
second across 30-day traces.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = ["TimeSeries"]

#: Samples a new series holds before its first growth.
INITIAL_CAPACITY = 1024


class TimeSeries:
    """Append-only sampled series with numpy-backed storage."""

    __slots__ = ("name", "_times", "_values", "_size", "_last")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times = np.empty(INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        #: The last appended time as a Python float: the monotonicity
        #: check reads it instead of a numpy scalar out of ``_times``.
        self._last = -math.inf

    def __len__(self) -> int:
        return self._size

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (times must be non-decreasing)."""
        if t < self._last:
            raise ConfigError(
                f"timestamps must be non-decreasing: {t} < {self._last}"
            )
        size = self._size
        if size == self._times.shape[0]:
            self._grow()
        self._times[size] = t
        self._values[size] = value
        self._size = size + 1
        self._last = float(t)

    def _grow(self) -> None:
        new_cap = self._times.shape[0] * 2
        times = np.empty(new_cap, dtype=np.float64)
        values = np.empty(new_cap, dtype=np.float64)
        times[: self._size] = self._times[: self._size]
        values[: self._size] = self._values[: self._size]
        self._times = times
        self._values = values

    # -- reads (views, not copies, per the numpy guide) ---------------------------
    def times(self) -> np.ndarray:
        return self._times[: self._size]

    def values(self) -> np.ndarray:
        return self._values[: self._size]

    def last(self) -> Tuple[float, float]:
        if self._size == 0:
            raise ConfigError(f"series {self.name!r} is empty")
        return float(self._times[self._size - 1]), float(self._values[self._size - 1])
