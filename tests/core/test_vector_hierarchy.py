"""Sink delivery equals batched delivery on the hierarchical plane.

A ``HierarchicalControlPlane`` given an ``enforce_array_sink`` hands each
cycle's per-stage rates to the sink as one array; without one, the same
cycle sends one ``EnforceJobRateBatch`` per hosting local.  These tests
pin that the two deliveries land the same floats on every stage, cycle
for cycle -- across allocators, staleness discounts, split jobs,
reservation changes, and rack eviction mid-run.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.algorithms import (
    DominantResourceFairness,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
)
from repro.core.controller import STALE_HALFLIFE
from repro.core.hierarchy import HierarchicalControlPlane, LocalController
from repro.core.requests import OperationType, Request

from tests.core.test_controller import make_stage


def build_plane(algorithm, vectorized, n_jobs=5, stages_per_job=3, n_racks=3):
    """Split placement: stage s of every job lives on rack s % n_racks,
    so each job spans several racks (the hierarchy's hard case).

    ``vectorized`` gives the plane an array sink that installs
    ``per_stage`` (``vector_job_ids()`` order) on every stage the plane
    still has registered -- what the sink-less plane's batched pushes do
    through the locals.
    """
    by_id = {}

    def sink(now, per_stage):
        for job_id, rate in zip(cp.vector_job_ids(), per_stage.tolist()):
            for stage_id in cp.jobs[job_id].stage_ids:
                by_id[stage_id].set_channel_rate("metadata", rate, now, None)

    cp = HierarchicalControlPlane(
        algorithm=algorithm,
        enforce_array_sink=sink if vectorized else None,
    )
    racks = [LocalController(f"rack{r}") for r in range(n_racks)]
    for rack in racks:
        cp.attach_local(rack.local_id, rack.handle)
    stages = []
    for j in range(n_jobs):
        for s in range(stages_per_job):
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            racks[s % n_racks].register(stage)
            cp.register_stage(stage.identity, f"rack{s % n_racks}")
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
#: the cycle there folds the locals' ``AggregateStats`` entries,
#: unpacked positionally, so a reordered payload moves this literal.
PROPORTIONAL_LOG_DIGEST = (
    "b75a045ebf5db0df5103f8af3069086cc3c05ff13f073edc5605f8311cc161ba"
)


class TestPlaneEquality:
    """The array sink and the batched fabric push deliver the same rates."""

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
        # bumping placement_version: the job-order layout must rebuild and
        # the sink keep matching the batched pushes afterwards.
        ref, vec = assert_planes_identical(
            lambda: ProportionalSharing(capacity=90.0), evict="rack2"
        )
        assert "rack2" not in vec.locals
        assert vec.placement_version == ref.placement_version

    def test_staleness_discount(self):
        ref_cp, ref_stages = build_plane(ProportionalSharing(capacity=90.0), False)
        vec_cp, vec_stages = build_plane(ProportionalSharing(capacity=90.0), True)
        # Ages normally come from the session machinery; inject them
        # directly so the 0.5 ** (age / halflife) discount branch runs --
        # with different discounts per local, around one half-life.
        halflife = STALE_HALFLIFE * ref_cp.config.loop_interval
        ages = {"rack0": 0.75 * halflife, "rack1": 1.5 * halflife}
        ref_hist = drive(ref_cp, ref_stages, ages=ages)
        vec_hist = drive(vec_cp, vec_stages, ages=ages)
        assert ref_hist == vec_hist

    def test_dominant_resource_fairness_cycle_for_cycle(self):
        assert_planes_identical(
            lambda: DominantResourceFairness(
                capacities={"mds": 90.0},
                usages={f"job{j}": {"mds": 1.0 + 0.5 * j} for j in range(5)},
            )
        )
