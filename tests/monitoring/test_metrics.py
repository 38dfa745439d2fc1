"""Tests for TimeSeries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.monitoring.metrics import TimeSeries


class TestTimeSeries:
    def test_append_and_read(self):
        ts = TimeSeries("x")
        for t in range(5):
            ts.append(float(t), float(t * 10))
        assert len(ts) == 5
        assert np.array_equal(ts.times(), np.arange(5.0))
        assert np.array_equal(ts.values(), np.arange(5.0) * 10)

    def test_growth_beyond_capacity(self):
        ts = TimeSeries("x")
        for t in range(3000):  # past 1 024 and 2 048: two growths
            ts.append(float(t), float(t))
        assert len(ts) == 3000
        assert np.array_equal(ts.times(), np.arange(3000.0))
        assert np.array_equal(ts.values(), np.arange(3000.0))

    def test_non_decreasing_times_enforced(self):
        ts = TimeSeries("x")
        ts.append(5.0, 1.0)
        with pytest.raises(ConfigError):
            ts.append(4.0, 1.0)
        ts.append(5.0, 2.0)  # equal is fine

    def test_last(self):
        ts = TimeSeries("x")
        with pytest.raises(ConfigError):
            ts.last()
        ts.append(1.0, 2.0)
        assert ts.last() == (1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
def test_series_preserves_all_appends(values):
    ts = TimeSeries("x")
    for i, v in enumerate(values):
        ts.append(float(i), v)
    assert len(ts) == len(values)
    assert np.allclose(ts.values(), np.array(values))
    assert ts.values().min() == pytest.approx(min(values))
    assert ts.values().max() == pytest.approx(max(values))
