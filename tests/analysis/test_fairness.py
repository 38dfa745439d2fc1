"""Tests for fairness metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.analysis.fairness import (
    jains_index,
    reservation_satisfaction,
)


class TestJains:
    def test_perfectly_fair(self):
        assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        # One user hogging everything among n users -> 1/n.
        assert jains_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jains_index([0.0, 0.0]) == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            jains_index([])
        with pytest.raises(ConfigError):
            jains_index([-1.0])


@settings(max_examples=100, deadline=None)
@given(
    alloc=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=10)
)
def test_jains_bounds(alloc):
    idx = jains_index(alloc)
    assert 0.0 < idx <= 1.0 + 1e-12


class TestReservationSatisfaction:
    def test_fully_satisfied(self):
        out = reservation_satisfaction(
            achieved={"a": 50.0}, reservations={"a": 40.0}, demands={"a": 100.0}
        )
        assert out["a"] == 1.0

    def test_partially_satisfied(self):
        out = reservation_satisfaction(
            achieved={"a": 20.0}, reservations={"a": 40.0}, demands={"a": 100.0}
        )
        assert out["a"] == pytest.approx(0.5)

    def test_low_demand_vacuously_satisfied(self):
        out = reservation_satisfaction(
            achieved={"a": 0.0}, reservations={"a": 40.0}, demands={"a": 0.0}
        )
        assert out["a"] == 1.0

    def test_negative_reservation_rejected(self):
        with pytest.raises(ConfigError):
            reservation_satisfaction({"a": 1.0}, {"a": -1.0}, {"a": 1.0})
