"""Control algorithms: cluster-wide rate allocation across jobs.

The control plane's feedback loop measures each job's demand and hands the
per-job arrays to an allocation algorithm, which returns the per-job
rates to enforce.  Four allocators are provided:

* :class:`StaticPartition` -- every job gets the same fixed rate
  (the paper's *Static* setup: 75 KOps/s each under a 300 KOps/s cap);
* :class:`PriorityPartition` -- fixed per-job rates
  (the paper's *Priority* setup: 40/60/80/120 KOps/s);
* :class:`ProportionalSharing` -- per-job reservations with leftover
  redistributed proportionally (the paper's control algorithm), realised
  as reservation-weighted max-min fairness (water-filling);
* :class:`DominantResourceFairness` -- the DRF extension the paper lists
  as expressible (multi-resource allocation equalising dominant shares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PolicyError

__all__ = [
    "JobDemand",
    "AllocationAlgorithm",
    "StaticPartition",
    "PriorityPartition",
    "ProportionalSharing",
    "DominantResourceFairness",
]

#: Rates below this are clamped up so token buckets stay well-defined.
MIN_RATE = 1e-9

#: Width of the dominant-share interval at which DRF's search stops.
DRF_TOLERANCE = 1e-9


def _seq_sum(values: np.ndarray) -> float:
    """Sum in Python's left-to-right order, not ``np.sum``'s pairwise order.

    IEEE-754 addition is not associative, and the golden digests were
    built on ``sum(list)``: every reduction whose result feeds an
    allocation keeps that accumulation order.  ``np.add.accumulate`` adds
    strictly left to right in C; ``+ 0.0`` turns an all-``-0.0`` total
    into the ``+0.0`` that ``sum(list, 0.0)`` returns
    (tests/core/test_seq_sum.py pins the two bit for bit).
    """
    if not values.size:
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


@dataclass(frozen=True, slots=True)
class JobDemand:
    """One job's measured state, as seen by the feedback loop.

    ``demand`` is the offered rate the job would consume if unthrottled
    (measured enqueue rate plus backlog drain desire); ``reservation`` is
    the administrator-assigned guaranteed rate (also used as the job's
    weight when splitting leftover capacity).
    """

    job_id: str
    demand: float
    reservation: float = 0.0

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise PolicyError(f"demand must be >= 0, got {self.demand}")
        if self.reservation < 0:
            raise PolicyError(f"reservation must be >= 0, got {self.reservation}")


class AllocationAlgorithm:
    """Interface: per-job arrays in, per-job rates out.

    An allocator implements ``allocate_arrays(job_ids, demand,
    reservation) -> np.ndarray``: ``demand`` and ``reservation`` are
    float arrays aligned to the ``job_ids`` tuple, and the result is one
    rate per job in the same order.  The control plane calls it once per
    cycle, with the same ``job_ids`` tuple object for as long as the
    placement does not change.
    """

    def allocate_arrays(
        self,
        job_ids: Tuple[str, ...],
        demand: np.ndarray,
        reservation: np.ndarray,
    ) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - interface

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        """:meth:`allocate_arrays` for a list of :class:`JobDemand`,
        keyed by job id."""
        job_ids = tuple(d.job_id for d in demands)
        rates = self.allocate_arrays(
            job_ids,
            np.array([d.demand for d in demands], dtype=float),
            np.array([d.reservation for d in demands], dtype=float),
        )
        return dict(zip(job_ids, rates.tolist()))


class StaticPartition(AllocationAlgorithm):
    """Every active job is provisioned the same fixed rate, always."""

    def __init__(self, rate_per_job: float) -> None:
        if rate_per_job <= 0:
            raise PolicyError(f"per-job rate must be positive, got {rate_per_job}")
        self.rate_per_job = float(rate_per_job)

    def allocate_arrays(
        self,
        job_ids: Tuple[str, ...],
        demand: np.ndarray,
        reservation: np.ndarray,
    ) -> np.ndarray:
        return np.full(len(job_ids), self.rate_per_job)


class PriorityPartition(AllocationAlgorithm):
    """Fixed per-job rates keyed by job id; unknown jobs get ``default``."""

    def __init__(self, rates: Mapping[str, float], default: Optional[float] = None) -> None:
        for job, rate in rates.items():
            if rate <= 0:
                raise PolicyError(f"rate for {job!r} must be positive, got {rate}")
        if default is not None and default <= 0:
            raise PolicyError(f"default rate must be positive, got {default}")
        self.rates = dict(rates)
        self.default = default
        self._ids_cache: Optional[Tuple[Tuple[str, ...], np.ndarray]] = None

    def allocate_arrays(
        self,
        job_ids: Tuple[str, ...],
        demand: np.ndarray,
        reservation: np.ndarray,
    ) -> np.ndarray:
        # Rates depend only on the id tuple; the plane passes the same
        # cached tuple every cycle, so key the lookup table on it.
        cached = self._ids_cache
        if cached is not None and cached[0] == job_ids:
            return cached[1]
        out = np.empty(len(job_ids))
        for i, job_id in enumerate(job_ids):
            rate = self.rates.get(job_id, self.default)
            if rate is None:
                raise PolicyError(f"no priority rate configured for job {job_id!r}")
            out[i] = rate
        self._ids_cache = (tuple(job_ids), out)
        return out


def weighted_max_min_arrays(
    capacity: float, demands: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted max-min fair allocation (progressive water-filling).

    Returns per-entry allocations with sum <= capacity, each <= its
    demand, and leftover capacity split in proportion to ``weights``
    among entries whose demand is not yet met.  A zero weight counts as
    a tiny epsilon: such an entry has no claim until every weighted one
    is satisfied.  The unmet set is an ascending index array; ``np.min``
    selects (never re-associates), and the one order-sensitive reduction
    -- the unmet weight total -- goes through :func:`_seq_sum`.
    """
    if capacity < 0:
        raise PolicyError(f"capacity must be >= 0, got {capacity}")
    n = demands.shape[0]
    if n != weights.shape[0]:
        raise PolicyError("demands and weights length mismatch")
    alloc = np.zeros(n)
    remaining_cap = capacity
    w = np.maximum(weights, 1e-12)
    unmet = np.flatnonzero(demands > 0)
    while unmet.size and remaining_cap > 1e-12:
        w_u = w[unmet]
        total_w = _seq_sum(w_u)
        level = float(np.min((demands[unmet] - alloc[unmet]) / w_u))
        step = remaining_cap / total_w
        if step <= level:
            alloc[unmet] += step * w_u
            remaining_cap = 0.0
            break
        alloc[unmet] += level * w_u
        remaining_cap -= level * total_w
        unmet = unmet[(demands[unmet] - alloc[unmet]) > 1e-9]
    return alloc


class ProportionalSharing(AllocationAlgorithm):
    """Per-job rate reservations with proportional leftover sharing.

    Guarantees: every active job gets at least ``min(demand, reservation)``
    whenever the active reservations fit in ``capacity``; unused capacity is
    redistributed to still-hungry jobs in proportion to their reservations;
    the total never exceeds ``capacity``.  When active reservations exceed
    capacity they are scaled down proportionally (admission control is the
    scheduler's problem, not the I/O plane's).

    ``headroom`` inflates the measured demand slightly so a job throttled at
    exactly its demand can still drain a queue that grew within the loop
    interval -- without it, allocations track demand so tightly that backlog
    never drains.
    """

    def __init__(self, capacity: float, headroom: float = 1.05) -> None:
        if capacity <= 0:
            raise PolicyError(f"capacity must be positive, got {capacity}")
        if headroom < 1.0:
            raise PolicyError(f"headroom must be >= 1, got {headroom}")
        self.capacity = float(capacity)
        self.headroom = float(headroom)
        self._checked_ids: Optional[Tuple[str, ...]] = None

    def allocate_arrays(
        self,
        job_ids: Tuple[str, ...],
        demand: np.ndarray,
        reservation: np.ndarray,
    ) -> np.ndarray:
        """Reservations first, then the leftover water-filled by reservation.

        The two reductions whose results feed allocations (total
        reservation, phase-1 total) use :func:`_seq_sum`.
        """
        n = len(job_ids)
        if n == 0:
            return np.zeros(0)
        # The plane hands the same tuple object every cycle, so validate
        # each distinct tuple once.
        if job_ids != self._checked_ids:
            if len(set(job_ids)) != n:
                raise PolicyError(
                    f"duplicate job ids in demand list: {list(job_ids)}"
                )
            self._checked_ids = tuple(job_ids)
        wants = demand * self.headroom
        reservations = reservation
        total_res = _seq_sum(reservations)
        if total_res > self.capacity and total_res > 0:
            scale = self.capacity / total_res
            reservations = reservations * scale
        # Phase 1: satisfy reservations (up to demand).
        alloc = np.minimum(wants, reservations)
        leftover = max(0.0, self.capacity - _seq_sum(alloc))  # clamp float error
        # Phase 2: water-fill the leftover proportionally to reservations.
        residual = np.maximum(0.0, wants - alloc)
        extra = weighted_max_min_arrays(leftover, residual, reservations)
        return np.maximum(MIN_RATE, alloc + extra)

    #: ``bench/`` patches this name in the class's own ``__dict__``
    #: (``tests/test_bench_contract.py``).
    allocate = AllocationAlgorithm.allocate


class DominantResourceFairness(AllocationAlgorithm):
    """DRF over multiple resources (Ghodsi et al., NSDI'11), continuous form.

    Each job consumes ``usage[resource]`` units of each resource per
    operation; the allocator finds the largest common dominant share ``s``
    such that every job runs at ``x_i = min(demand_i, s / dominant_i)`` and
    no resource is over-committed, via binary search (allocations are
    monotone in ``s``, so the search converges geometrically).
    """

    def __init__(
        self,
        capacities: Mapping[str, float],
        usages: Mapping[str, Mapping[str, float]],
    ) -> None:
        if not capacities:
            raise PolicyError("DRF needs at least one resource")
        for name, cap in capacities.items():
            if cap <= 0:
                raise PolicyError(f"capacity of {name!r} must be positive, got {cap}")
        self.capacities = dict(capacities)
        self.usages = {j: dict(u) for j, u in usages.items()}
        for job, usage in self.usages.items():
            if not usage:
                raise PolicyError(f"job {job!r} has an empty usage vector")
            for res, amount in usage.items():
                if res not in self.capacities:
                    raise PolicyError(f"job {job!r} uses unknown resource {res!r}")
                if amount < 0:
                    raise PolicyError(f"negative usage {amount} for {job!r}/{res!r}")
            if all(a == 0 for a in usage.values()):
                raise PolicyError(f"job {job!r} consumes nothing; cannot allocate")

    def _dominant(self, job_id: str) -> float:
        usage = self.usages[job_id]
        return max(usage[r] / self.capacities[r] for r in usage)

    def _rates_at(
        self, s: float, job_ids: Sequence[str], demands: Sequence[float]
    ) -> list[float]:
        return [
            min(d, s / self._dominant(job_id)) if d > 0 else 0.0
            for job_id, d in zip(job_ids, demands)
        ]

    def _feasible(self, rates: Sequence[float], job_ids: Sequence[str]) -> bool:
        for res, cap in self.capacities.items():
            used = sum(
                self.usages[job_id].get(res, 0.0) * x
                for job_id, x in zip(job_ids, rates)
            )
            if used > cap * (1 + 1e-9):
                return False
        return True

    def allocate_arrays(
        self,
        job_ids: Tuple[str, ...],
        demand: np.ndarray,
        reservation: np.ndarray,
    ) -> np.ndarray:
        """Binary search over the dominant share, on Python lists."""
        for job_id in job_ids:
            if job_id not in self.usages:
                raise PolicyError(f"no usage vector for job {job_id!r}")
        demands = demand.tolist()
        # Upper bound for the dominant share: 1.0 (a job owning its entire
        # dominant resource).
        lo, hi = 0.0, 1.0
        if not self._feasible(self._rates_at(hi, job_ids, demands), job_ids):
            # Binary search in (lo, hi].
            for _ in range(200):
                mid = (lo + hi) / 2
                if self._feasible(self._rates_at(mid, job_ids, demands), job_ids):
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= DRF_TOLERANCE:
                    break
            s = lo
        else:
            s = hi
        return np.maximum(MIN_RATE, np.array(self._rates_at(s, job_ids, demands), dtype=float))
