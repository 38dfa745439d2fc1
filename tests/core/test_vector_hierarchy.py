"""Vectorised global tier: bit-identical to the scalar hierarchy.

The vector path (a ``HierarchicalControlPlane`` given an
``enforce_array_sink``, plus an ``allocate_arrays``-capable algorithm)
re-expresses the per-cycle demand merge, staleness discount, allocation,
clamping, logging, and per-stage split as numpy reductions.  These tests
pin the contract that makes it safe to ship: every float equals the
scalar path's (the same plane without a sink), cycle for cycle -- across
policies, staleness discounts, split jobs, reservation changes, and rack
eviction mid-run.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.core.algorithms import (
    JobDemand,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
    weighted_max_min,
    weighted_max_min_arrays,
)
from repro.core.controller import ControlPlaneConfig
from repro.core.hierarchy import HierarchicalControlPlane, LocalController
from repro.core.requests import OperationType, Request

from tests.core.test_controller import make_stage


def build_plane(algorithm, vectorized, n_jobs=5, stages_per_job=3, n_racks=3,
                config=None):
    """Split placement: stage s of every job lives on rack s % n_racks,
    so each job spans several racks (the hierarchy's hard case).

    ``vectorized`` gives the plane an array sink that installs
    ``per_stage`` (``vector_job_ids()`` order) on every stage the plane
    still has registered -- what the scalar plane's batched pushes do
    through the locals.
    """
    by_id = {}

    def sink(now, per_stage):
        for job_id, rate in zip(cp.vector_job_ids(), per_stage.tolist()):
            for stage_id in cp.jobs[job_id].stage_ids:
                by_id[stage_id].set_channel_rate("metadata", rate, now, None)

    cp = HierarchicalControlPlane(
        config=config,
        algorithm=algorithm,
        enforce_array_sink=sink if vectorized else None,
    )
    for r in range(n_racks):
        cp.attach_local(LocalController(f"rack{r}"))
    stages = []
    for j in range(n_jobs):
        for s in range(stages_per_job):
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            cp.register_stage(stage, f"rack{s % n_racks}")
            by_id[stage.identity.stage_id] = stage
            stages.append(stage)
    return cp, stages


def drive(cp, stages, n_cycles=6, evict=None, reserve=None, ages=None):
    """Tick ``n_cycles`` with deterministic load; return the full float
    history (enforcement log snapshot + per-stage rates per cycle)."""
    history = []
    for cycle in range(n_cycles):
        now = float(cycle + 1)
        if reserve and cycle == 2:
            for job_id, rate in reserve:
                cp.set_reservation(job_id, rate)
        if evict is not None and cycle == 3:
            cp._evict(evict)
        for i, stage in enumerate(stages):
            stage.submit(
                Request(
                    OperationType.OPEN,
                    path="/f",
                    count=7.0 * (1 + i % 4) + cycle,
                ),
                now,
            )
        if ages:
            cp._stats_age = dict(ages)
        cp.tick(now)
        history.append(
            (
                tuple(cp.enforcement_log),
                tuple(stage.channel_rate("metadata") for stage in stages),
            )
        )
    return history


def assert_planes_identical(make_algorithm, **kw):
    ref_cp, ref_stages = build_plane(make_algorithm(), vectorized=False)
    vec_cp, vec_stages = build_plane(make_algorithm(), vectorized=True)
    ref_hist = drive(ref_cp, ref_stages, **kw)
    vec_hist = drive(vec_cp, vec_stages, **kw)
    assert ref_hist == vec_hist
    return ref_cp, vec_cp


#: The enforcement log of ``test_proportional_sharing_cycle_for_cycle``:
#: the vector cycle there folds the locals' ``AggregateStats`` entries,
#: unpacked positionally, so a reordered payload moves this literal.
PROPORTIONAL_LOG_DIGEST = (
    "b75a045ebf5db0df5103f8af3069086cc3c05ff13f073edc5605f8311cc161ba"
)


class TestPlaneEquality:
    def test_proportional_sharing_cycle_for_cycle(self):
        ref, vec = assert_planes_identical(
            lambda: ProportionalSharing(capacity=90.0)
        )
        rows = [[now.hex(), job, rate.hex()] for now, job, rate in vec.enforcement_log]
        assert len(rows) == 30
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            PROPORTIONAL_LOG_DIGEST
        )

    def test_priority_partition_cycle_for_cycle(self):
        rates = {f"job{j}": 5.0 + 2.5 * j for j in range(3)}
        assert_planes_identical(
            lambda: PriorityPartition(rates, default=4.0)
        )

    def test_static_partition_cycle_for_cycle(self):
        assert_planes_identical(lambda: StaticPartition(rate_per_job=6.0))

    def test_reservations_mid_run(self):
        assert_planes_identical(
            lambda: ProportionalSharing(capacity=70.0),
            reserve=[("job0", 25.0), ("job3", 10.0)],
        )

    def test_rack_eviction_mid_run(self):
        # Evicting rack2 drops a stage of every job (split placement),
        # bumping placement_version: the vector layout must rebuild and
        # keep matching the scalar plane afterwards.
        ref, vec = assert_planes_identical(
            lambda: ProportionalSharing(capacity=90.0), evict="rack2"
        )
        assert "rack2" not in vec.locals
        assert vec.placement_version == ref.placement_version

    def test_staleness_discount(self):
        config = ControlPlaneConfig(stale_halflife=2.0)
        ref_cp, ref_stages = build_plane(
            ProportionalSharing(capacity=90.0), False, config=config
        )
        vec_cp, vec_stages = build_plane(
            ProportionalSharing(capacity=90.0), True, config=config
        )
        # Ages normally come from the async-collect session machinery;
        # inject them directly so the 0.5 ** (age / halflife) discount
        # branch runs -- with different discounts per local.
        ages = {"rack0": 1.5, "rack1": 3.0}
        ref_hist = drive(ref_cp, ref_stages, ages=ages)
        vec_hist = drive(vec_cp, vec_stages, ages=ages)
        assert ref_hist == vec_hist

    def test_demand_merge_matches_scalar_on_same_plane(self):
        cp, stages = build_plane(ProportionalSharing(capacity=90.0), True)
        for i, stage in enumerate(stages):
            stage.submit(
                Request(OperationType.OPEN, path="/f", count=9.0 + i), 1.0
            )
        stats = cp._collect(1.0)
        job_ids = cp.vector_job_ids()
        vec = cp._job_demand_vec(stats)
        scalar = cp._job_demands(stats)
        assert tuple(d.job_id for d in scalar) == job_ids
        assert [d.demand for d in scalar] == vec.tolist()

    def test_drf_keeps_scalar_path(self):
        # DominantResourceFairness has no allocate_arrays: the vector
        # plane must silently fall back to the scalar cycle.
        from repro.core.algorithms import DominantResourceFairness

        algo = DominantResourceFairness(
            capacities={"mds": 90.0},
            usages={f"job{j}": {"mds": 1.0} for j in range(5)},
        )
        assert getattr(algo, "allocate_arrays", None) is None
        cp, stages = build_plane(algo, vectorized=True)
        hist = drive(cp, stages, n_cycles=2)
        assert len(hist[-1][0]) > 0


class TestAllocatorEquality:
    """allocate_arrays vs allocate, bitwise, over fuzzed demand sets."""

    def cases(self, n_sets=25, n_jobs=7):
        rng = np.random.default_rng(42)
        for _ in range(n_sets):
            demand = rng.uniform(0.0, 40.0, n_jobs)
            demand[rng.uniform(size=n_jobs) < 0.25] = 0.0
            reservation = rng.uniform(0.0, 15.0, n_jobs)
            reservation[rng.uniform(size=n_jobs) < 0.3] = 0.0
            yield demand, reservation

    def compare(self, algorithm, demand, reservation):
        job_ids = tuple(f"job{i}" for i in range(len(demand)))
        demands = [
            JobDemand(job_id=j, demand=float(d), reservation=float(r))
            for j, d, r in zip(job_ids, demand, reservation)
        ]
        scalar = algorithm.allocate(demands)
        vector = algorithm.allocate_arrays(job_ids, demand, reservation)
        assert [scalar[j] for j in job_ids] == vector.tolist()

    def test_proportional_sharing_bitwise(self):
        for demand, reservation in self.cases():
            self.compare(
                ProportionalSharing(capacity=55.0), demand, reservation
            )

    def test_priority_and_static_bitwise(self):
        rates = {f"job{i}": 3.0 + i for i in range(4)}
        for demand, reservation in self.cases(n_sets=5):
            self.compare(
                PriorityPartition(rates, default=2.0), demand, reservation
            )
            self.compare(StaticPartition(rate_per_job=8.0), demand, reservation)

    def test_priority_missing_rate_raises(self):
        algo = PriorityPartition({"job0": 5.0})
        with pytest.raises(PolicyError):
            algo.allocate_arrays(
                ("job0", "ghost"), np.ones(2), np.zeros(2)
            )

    def test_weighted_max_min_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            demands = rng.uniform(0.0, 30.0, n)
            demands[rng.uniform(size=n) < 0.3] = 0.0
            weights = rng.uniform(0.0, 5.0, n)
            weights[rng.uniform(size=n) < 0.3] = 0.0
            capacity = float(rng.uniform(0.0, 60.0))
            scalar = weighted_max_min(
                capacity, demands.tolist(), weights.tolist()
            )
            vector = weighted_max_min_arrays(capacity, demands, weights)
            assert scalar == vector.tolist()

    def test_weighted_max_min_edge_cases(self):
        assert weighted_max_min_arrays(
            0.0, np.array([5.0]), np.array([1.0])
        ).tolist() == [0.0]
        assert weighted_max_min_arrays(
            10.0, np.zeros(3), np.ones(3)
        ).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(PolicyError):
            weighted_max_min_arrays(-1.0, np.ones(1), np.ones(1))
        with pytest.raises(PolicyError):
            weighted_max_min_arrays(1.0, np.ones(2), np.ones(1))
