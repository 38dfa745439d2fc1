"""Fairness metrics over per-job allocations.

Jain's index is the standard fairness score (1 = perfectly equal);
``reservation_satisfaction`` scores how well each job's guaranteed rate
was honoured -- the property the paper's Proportional-sharing setup must
uphold.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConfigError

__all__ = ["jains_index", "reservation_satisfaction"]


def _as_alloc(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("allocations must be a non-empty 1-D sequence")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ConfigError("allocations must be finite and non-negative")
    return arr


def jains_index(allocations) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]."""
    arr = _as_alloc(allocations)
    peak = float(arr.max())
    if peak == 0:
        return 1.0  # everyone got zero: vacuously fair
    # The index is scale-invariant; normalising by the peak keeps the
    # squares out of the subnormal range, where the ratio of two
    # underflowed sums can exceed 1.
    arr = arr / peak
    denom = arr.size * float((arr * arr).sum())
    return min(1.0, float(arr.sum()) ** 2 / denom)


def reservation_satisfaction(
    achieved: Mapping[str, float],
    reservations: Mapping[str, float],
    demands: Mapping[str, float],
) -> dict[str, float]:
    """Per-job satisfaction of the reservation guarantee.

    A job is entitled to ``min(demand, reservation)``; satisfaction is
    achieved rate divided by that entitlement, clipped to [0, 1].  Jobs
    whose entitlement is zero (no demand or no reservation) score 1.
    """
    out: dict[str, float] = {}
    for job, reservation in reservations.items():
        if reservation < 0:
            raise ConfigError(f"negative reservation for {job!r}")
        entitlement = min(demands.get(job, 0.0), reservation)
        if entitlement <= 0:
            out[job] = 1.0
            continue
        out[job] = min(1.0, max(0.0, achieved.get(job, 0.0)) / entitlement)
    return out
