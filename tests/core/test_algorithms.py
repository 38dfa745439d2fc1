"""Tests for the control algorithms, including hypothesis invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.core.algorithms import (
    MIN_RATE,
    DominantResourceFairness,
    JobDemand,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
    weighted_max_min_arrays,
)


def weighted_max_min(capacity, demands, weights):
    return weighted_max_min_arrays(
        capacity, np.array(demands, dtype=float), np.array(weights, dtype=float)
    ).tolist()


class TestStaticPartition:
    def test_same_rate_for_all(self):
        algo = StaticPartition(75e3)
        out = algo.allocate([JobDemand("a", 1.0), JobDemand("b", 1e9)])
        assert out == {"a": 75e3, "b": 75e3}

    def test_invalid(self):
        with pytest.raises(PolicyError):
            StaticPartition(0.0)


class TestPriorityPartition:
    def test_fixed_rates(self):
        algo = PriorityPartition({"j1": 40e3, "j2": 60e3})
        out = algo.allocate([JobDemand("j1", 1.0), JobDemand("j2", 1.0)])
        assert out == {"j1": 40e3, "j2": 60e3}

    def test_default_for_unknown(self):
        algo = PriorityPartition({"j1": 40e3}, default=10e3)
        out = algo.allocate([JobDemand("jX", 1.0)])
        assert out == {"jX": 10e3}

    def test_unknown_without_default_rejected(self):
        algo = PriorityPartition({"j1": 40e3})
        with pytest.raises(PolicyError):
            algo.allocate([JobDemand("jX", 1.0)])

    def test_missing_rate_raises_from_allocate_arrays(self):
        algo = PriorityPartition({"job0": 5.0})
        with pytest.raises(PolicyError):
            algo.allocate_arrays(("job0", "ghost"), np.ones(2), np.zeros(2))


class TestWeightedMaxMin:
    def test_under_capacity_everyone_satisfied(self):
        alloc = weighted_max_min(100.0, [10.0, 20.0], [1.0, 1.0])
        assert alloc == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_over_capacity_split_by_weight(self):
        alloc = weighted_max_min(30.0, [100.0, 100.0], [1.0, 2.0])
        assert alloc[0] == pytest.approx(10.0)
        assert alloc[1] == pytest.approx(20.0)

    def test_saturated_entry_releases_to_others(self):
        alloc = weighted_max_min(30.0, [5.0, 100.0], [1.0, 1.0])
        assert alloc[0] == pytest.approx(5.0)
        assert alloc[1] == pytest.approx(25.0)

    def test_length_mismatch(self):
        with pytest.raises(PolicyError):
            weighted_max_min(1.0, [1.0], [1.0, 2.0])

    def test_edge_cases(self):
        assert weighted_max_min(0.0, [5.0], [1.0]) == [0.0]
        assert weighted_max_min(10.0, [0.0] * 3, [1.0] * 3) == [0.0, 0.0, 0.0]
        with pytest.raises(PolicyError):
            weighted_max_min(-1.0, [1.0], [1.0])


class TestProportionalSharing:
    def test_paper_scenario(self):
        """Fig. 5 reservations: 40/60/80/120 under a 300K cap."""
        algo = ProportionalSharing(300e3, headroom=1.0)
        demands = [
            JobDemand("j1", 200e3, 40e3),
            JobDemand("j2", 200e3, 60e3),
            JobDemand("j3", 200e3, 80e3),
            JobDemand("j4", 200e3, 120e3),
        ]
        out = algo.allocate(demands)
        assert sum(out.values()) == pytest.approx(300e3)
        # Overloaded: every job gets exactly its reservation share.
        assert out["j1"] == pytest.approx(40e3)
        assert out["j4"] == pytest.approx(120e3)

    def test_leftover_redistributed_proportionally(self):
        algo = ProportionalSharing(300e3, headroom=1.0)
        demands = [
            JobDemand("j1", 10e3, 40e3),   # tiny demand: frees 30K
            JobDemand("j2", 500e3, 60e3),
            JobDemand("j4", 500e3, 120e3),
        ]
        out = algo.allocate(demands)
        assert out["j1"] == pytest.approx(10e3)
        # Leftover 110K (cap - reservations actually used) split 60:120.
        assert out["j2"] == pytest.approx(60e3 + (300e3 - 10e3 - 180e3) * 60 / 180)
        assert out["j4"] == pytest.approx(120e3 + (300e3 - 10e3 - 180e3) * 120 / 180)

    def test_single_job_gets_all_it_wants(self):
        algo = ProportionalSharing(300e3, headroom=1.0)
        out = algo.allocate([JobDemand("j1", 150e3, 40e3)])
        assert out["j1"] == pytest.approx(150e3)

    def test_reservations_scaled_when_oversubscribed(self):
        algo = ProportionalSharing(100.0, headroom=1.0)
        out = algo.allocate(
            [JobDemand("a", 1e6, 100.0), JobDemand("b", 1e6, 300.0)]
        )
        assert out["a"] == pytest.approx(25.0)
        assert out["b"] == pytest.approx(75.0)
        assert sum(out.values()) == pytest.approx(100.0)

    def test_duplicate_jobs_rejected(self):
        algo = ProportionalSharing(100.0)
        with pytest.raises(PolicyError):
            algo.allocate([JobDemand("a", 1.0), JobDemand("a", 1.0)])

    def test_empty(self):
        assert ProportionalSharing(100.0).allocate([]) == {}

    def test_headroom_validation(self):
        with pytest.raises(PolicyError):
            ProportionalSharing(100.0, headroom=0.5)


job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6),   # demand
        st.floats(min_value=0.0, max_value=1e5),   # reservation
    ),
    min_size=1,
    max_size=8,
)


def assert_within_demand(out, demands):
    """Each rate stays at its demand cap, give or take float error and
    the ``MIN_RATE`` floor."""
    for d in demands:
        assert MIN_RATE <= out[d.job_id] <= max(d.demand, 1e-6) * (1 + 1e-6) + 1e-6


@settings(max_examples=200, deadline=None)
@given(capacity=st.floats(min_value=1.0, max_value=1e6), jobs=job_lists)
def test_proportional_sharing_invariants(capacity, jobs):
    algo = ProportionalSharing(capacity, headroom=1.0)
    demands = [
        JobDemand(f"j{i}", d, r) for i, (d, r) in enumerate(jobs)
    ]
    out = algo.allocate(demands)
    total = sum(out.values())
    # Never exceeds the cluster cap.
    assert total <= capacity * (1 + 1e-9) + 1e-6
    total_res = sum(d.reservation for d in demands)
    scale = min(1.0, capacity / total_res) if total_res > 0 else 1.0
    for d in demands:
        # Reservation guarantee (scaled if oversubscribed).
        entitled = min(d.demand, d.reservation * scale)
        assert out[d.job_id] >= entitled - 1e-6 * max(1.0, entitled)
    # Never allocated meaningfully beyond demand; never below the floor.
    assert_within_demand(out, demands)


@settings(max_examples=100, deadline=None)
@given(rate=st.floats(min_value=1e-6, max_value=1e6), jobs=job_lists)
def test_static_partition_invariants(rate, jobs):
    demands = [JobDemand(f"j{i}", d, r) for i, (d, r) in enumerate(jobs)]
    out = StaticPartition(rate).allocate(demands)
    # Demand-blind: every job gets the configured rate, whatever it asks.
    assert list(out) == [d.job_id for d in demands]
    assert set(out.values()) == {rate}


@settings(max_examples=100, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8),
    default=st.floats(min_value=1e-6, max_value=1e6),
    jobs=job_lists,
)
def test_priority_partition_invariants(rates, default, jobs):
    table = {f"j{i}": rate for i, rate in enumerate(rates)}
    demands = [JobDemand(f"j{i}", d, r) for i, (d, r) in enumerate(jobs)]
    out = PriorityPartition(table, default=default).allocate(demands)
    # Each job gets its own configured rate, the default when it has none.
    assert out == {d.job_id: table.get(d.job_id, default) for d in demands}


@settings(max_examples=100, deadline=None)
@given(
    capacities=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=3),
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),  # demand
            st.lists(
                st.just(0.0) | st.floats(min_value=1e-3, max_value=10.0),
                min_size=3,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_drf_invariants(capacities, jobs):
    resources = [f"r{k}" for k in range(len(capacities))]
    usages = {}
    for i, (_, usage) in enumerate(jobs):
        usage = dict(zip(resources, usage))
        if not any(usage.values()):
            usage[resources[0]] = 1.0  # a job must consume something
        usages[f"j{i}"] = usage
    algo = DominantResourceFairness(dict(zip(resources, capacities)), usages)
    demands = [JobDemand(f"j{i}", d) for i, (d, _) in enumerate(jobs)]
    out = algo.allocate(demands)
    # No resource over-committed (the floor may add MIN_RATE per job).
    for res, cap in zip(resources, capacities):
        used = sum(usages[d.job_id][res] * out[d.job_id] for d in demands)
        floor = sum(usages[d.job_id][res] * MIN_RATE for d in demands)
        assert used <= cap * (1 + 1e-6) + floor
    assert_within_demand(out, demands)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.floats(min_value=0.0, max_value=1e6),
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6),  # demand
            st.floats(min_value=0.0, max_value=1e3),  # weight
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_weighted_max_min_invariants(capacity, entries):
    demands = [d for d, _ in entries]
    weights = [w for _, w in entries]
    alloc = weighted_max_min(capacity, demands, weights)
    tol = 1e-9 * max(1.0, capacity, sum(demands))
    # Never beyond capacity, never beyond demand, never negative.
    assert sum(alloc) <= capacity + tol
    for a, d in zip(alloc, demands):
        assert 0.0 <= a <= d + tol
    # When everything fits, everyone is served in full.
    if sum(demands) <= capacity:
        for a, d in zip(alloc, demands):
            assert a == pytest.approx(d, rel=1e-9, abs=tol)


class TestDRF:
    def test_two_resource_textbook_example(self):
        """Ghodsi et al.'s canonical example: CPU-heavy vs memory-heavy."""
        algo = DominantResourceFairness(
            capacities={"cpu": 9.0, "mem": 18.0},
            usages={"A": {"cpu": 1.0, "mem": 4.0}, "B": {"cpu": 3.0, "mem": 1.0}},
        )
        out = algo.allocate([JobDemand("A", 100.0), JobDemand("B", 100.0)])
        # Known solution: A runs 3 tasks, B runs 2 (dominant share 2/3 each).
        assert out["A"] == pytest.approx(3.0, rel=1e-3)
        assert out["B"] == pytest.approx(2.0, rel=1e-3)

    def test_demand_capping(self):
        algo = DominantResourceFairness(
            capacities={"r": 10.0},
            usages={"A": {"r": 1.0}, "B": {"r": 1.0}},
        )
        out = algo.allocate([JobDemand("A", 2.0), JobDemand("B", 100.0)])
        assert out["A"] == pytest.approx(2.0, rel=1e-3)
        assert out["B"] == pytest.approx(8.0, rel=1e-3)

    def test_no_overcommit(self):
        algo = DominantResourceFairness(
            capacities={"x": 5.0, "y": 7.0},
            usages={
                "A": {"x": 1.0, "y": 0.5},
                "B": {"x": 0.2, "y": 1.0},
                "C": {"x": 0.7, "y": 0.7},
            },
        )
        out = algo.allocate([JobDemand(j, 100.0) for j in "ABC"])
        used_x = sum(algo.usages[j]["x"] * out[j] for j in "ABC")
        used_y = sum(algo.usages[j]["y"] * out[j] for j in "ABC")
        assert used_x <= 5.0 * (1 + 1e-6)
        assert used_y <= 7.0 * (1 + 1e-6)

    def test_unknown_job_rejected(self):
        algo = DominantResourceFairness(
            capacities={"r": 1.0}, usages={"A": {"r": 1.0}}
        )
        with pytest.raises(PolicyError):
            algo.allocate([JobDemand("B", 1.0)])

    def test_validation(self):
        with pytest.raises(PolicyError):
            DominantResourceFairness(capacities={}, usages={})
        with pytest.raises(PolicyError):
            DominantResourceFairness(
                capacities={"r": 1.0}, usages={"A": {"bad": 1.0}}
            )
        with pytest.raises(PolicyError):
            DominantResourceFairness(
                capacities={"r": 1.0}, usages={"A": {"r": 0.0}}
            )
