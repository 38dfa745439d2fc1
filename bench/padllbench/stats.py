"""Small statistics helpers shared by the runner, ``--agree`` and the tests."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = ["median", "quartiles", "summary", "spread", "tail"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes them."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "min": float(min(values)) if values else 0.0,
        "max": float(max(values)) if values else 0.0,
    }


def tail(values: Sequence[float], percentile: float = 99.0, beyond: int = 10) -> float:
    """The ``percentile`` of ``values``, lowered until at least ``beyond``
    samples lie beyond it (0.0 when even the median cannot have that)."""
    n = len(values)
    if n < 2 * beyond:
        return 0.0
    ordered: List[float] = sorted(values)
    index = min(int(n * percentile / 100.0), n - 1 - beyond)
    return float(ordered[index])
