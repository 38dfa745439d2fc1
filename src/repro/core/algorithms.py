"""Control algorithms: cluster-wide rate allocation across jobs.

The control plane's feedback loop measures each job's demand and hands the
list to an allocation algorithm, which returns the per-job rates to
enforce.  Three allocators are provided:

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

import math
from dataclasses import dataclass, field
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


def _seq_sum(values: np.ndarray) -> float:
    """Sum in Python's left-to-right order, not ``np.sum``'s pairwise order.

    The vectorised allocators are bit-identity twins of the scalar ones,
    and IEEE-754 addition is not associative: every reduction whose result
    feeds an allocation must replay the scalar path's ``sum(list)``
    accumulation order exactly.  ``np.add.accumulate`` adds strictly left
    to right in C; ``+ 0.0`` turns an all-``-0.0`` total into the ``+0.0``
    that ``sum(list, 0.0)`` returns (tests/core/test_seq_sum.py pins the
    two bit for bit).
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
    """Interface: demands in, per-job rates out.

    Allocators may additionally implement ``allocate_arrays(job_ids,
    demand, reservation) -> np.ndarray`` -- the vectorised twin of
    :meth:`allocate` over parallel per-job arrays, required to return
    bit-identical rates (the hierarchical plane's vector path probes for
    it with ``getattr`` and falls back to :meth:`allocate` otherwise).
    """

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        raise NotImplementedError  # pragma: no cover - interface


class StaticPartition(AllocationAlgorithm):
    """Every active job is provisioned the same fixed rate, always."""

    def __init__(self, rate_per_job: float) -> None:
        if rate_per_job <= 0:
            raise PolicyError(f"per-job rate must be positive, got {rate_per_job}")
        self.rate_per_job = float(rate_per_job)

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        return {d.job_id: self.rate_per_job for d in demands}

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

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for d in demands:
            rate = self.rates.get(d.job_id, self.default)
            if rate is None:
                raise PolicyError(f"no priority rate configured for job {d.job_id!r}")
            out[d.job_id] = rate
        return out

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


def weighted_max_min(
    capacity: float,
    demands: Sequence[float],
    weights: Sequence[float],
) -> list[float]:
    """Weighted max-min fair allocation (progressive water-filling).

    Returns per-entry allocations with sum <= capacity, each <= its demand,
    and leftover capacity split in proportion to ``weights`` among entries
    whose demand is not yet met.  Runs in O(n log n).
    """
    if capacity < 0:
        raise PolicyError(f"capacity must be >= 0, got {capacity}")
    n = len(demands)
    if n != len(weights):
        raise PolicyError("demands and weights length mismatch")
    alloc = [0.0] * n
    remaining_cap = capacity
    # Entries still below their demand; weight zero entries can only receive
    # capacity after all weighted entries are satisfied (they have no claim),
    # so give them a tiny epsilon weight instead of special-casing.
    eps_w = 1e-12
    unmet = [i for i in range(n) if demands[i] > 0]
    w = [max(weights[i], eps_w) for i in range(n)]
    while unmet and remaining_cap > 1e-12:
        total_w = sum(w[i] for i in unmet)
        # Fill level at which the first unmet entry saturates.
        level = min((demands[i] - alloc[i]) / w[i] for i in unmet)
        step = remaining_cap / total_w
        if step <= level:
            # Capacity exhausts before anyone saturates: final split.
            for i in unmet:
                alloc[i] += step * w[i]
            remaining_cap = 0.0
            break
        for i in unmet:
            alloc[i] += level * w[i]
        remaining_cap -= level * total_w
        unmet = [i for i in unmet if demands[i] - alloc[i] > 1e-9]
    return alloc


def weighted_max_min_arrays(
    capacity: float, demands: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Vectorised twin of :func:`weighted_max_min`, bit-identical.

    Same progressive water-filling over an ascending unmet index array:
    elementwise multiplies/adds/compares are IEEE-identical to the scalar
    loop's, ``np.min`` selects (never re-associates), and the one
    order-sensitive reduction -- the unmet weight total -- goes through
    :func:`_seq_sum` to replay Python ``sum``'s left-to-right adds.
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
        """Vectorised twin of :meth:`allocate`, bit-identical.

        Every expression mirrors the scalar path one-for-one: elementwise
        headroom/min/max/add are IEEE-identical, and the two reductions
        whose results feed allocations (total reservation, phase-1 total)
        use :func:`_seq_sum` to keep Python ``sum``'s accumulation order.
        """
        n = len(job_ids)
        if n == 0:
            return np.zeros(0)
        # Same duplicate guard as allocate(); the plane hands the same
        # tuple object every cycle, so validate each distinct tuple once.
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

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        if not demands:
            return {}
        ids = [d.job_id for d in demands]
        if len(set(ids)) != len(ids):
            raise PolicyError(f"duplicate job ids in demand list: {ids}")
        wants = [d.demand * self.headroom for d in demands]
        reservations = [d.reservation for d in demands]
        total_res = sum(reservations)
        if total_res > self.capacity and total_res > 0:
            scale = self.capacity / total_res
            reservations = [r * scale for r in reservations]
        # Phase 1: satisfy reservations (up to demand).
        alloc = [min(w, r) for w, r in zip(wants, reservations)]
        leftover = max(0.0, self.capacity - sum(alloc))  # clamp float error
        # Phase 2: water-fill the leftover proportionally to reservations.
        residual = [max(0.0, w - a) for w, a in zip(wants, alloc)]
        extra = weighted_max_min(leftover, residual, reservations)
        return {
            jid: max(MIN_RATE, a + e)
            for jid, a, e in zip(ids, alloc, extra)
        }


class DominantResourceFairness(AllocationAlgorithm):
    """DRF over multiple resources (Ghodsi et al., NSDI'11), continuous form.

    Each job consumes ``usage[resource]`` units of each resource per
    operation; the allocator finds the largest common dominant share ``s``
    such that every job runs at ``x_i = min(demand_i, s / dominant_i)`` and
    no resource is over-committed, via binary search (allocations are
    monotone in ``s``, so the search converges geometrically).
    """

    #: Registered scalar-only (``tests/core/test_contracts.py`` requires
    #: it of an allocator without ``allocate_arrays``): the binary search
    #: over the dominant share has no array formulation yet, so the
    #: hierarchy's vectorised control tier intentionally runs this scalar
    #: path.
    scalar_only = True

    def __init__(
        self,
        capacities: Mapping[str, float],
        usages: Mapping[str, Mapping[str, float]],
        tolerance: float = 1e-9,
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
        self.tolerance = tolerance

    def _dominant(self, job_id: str) -> float:
        usage = self.usages[job_id]
        return max(usage[r] / self.capacities[r] for r in usage)

    def _rates_at(self, s: float, demands: Sequence[JobDemand]) -> list[float]:
        return [
            min(d.demand, s / self._dominant(d.job_id)) if d.demand > 0 else 0.0
            for d in demands
        ]

    def _feasible(self, rates: Sequence[float], demands: Sequence[JobDemand]) -> bool:
        for res, cap in self.capacities.items():
            used = sum(
                self.usages[d.job_id].get(res, 0.0) * x
                for d, x in zip(demands, rates)
            )
            if used > cap * (1 + 1e-9):
                return False
        return True

    def allocate(self, demands: Sequence[JobDemand]) -> Dict[str, float]:
        if not demands:
            return {}
        for d in demands:
            if d.job_id not in self.usages:
                raise PolicyError(f"no usage vector for job {d.job_id!r}")
        # Upper bound for the dominant share: 1.0 (a job owning its entire
        # dominant resource).
        lo, hi = 0.0, 1.0
        if not self._feasible(self._rates_at(hi, demands), demands):
            # Binary search in (lo, hi].
            for _ in range(200):
                mid = (lo + hi) / 2
                if self._feasible(self._rates_at(mid, demands), demands):
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= self.tolerance:
                    break
            s = lo
        else:
            s = hi
        rates = self._rates_at(s, demands)
        return {
            d.job_id: max(MIN_RATE, x) for d, x in zip(demands, rates)
        }
