"""Tests for burstiness metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.analysis.burstiness import coefficient_of_variation


class TestCoV:
    def test_flat_series_zero(self):
        assert coefficient_of_variation([5.0] * 10) == 0.0

    def test_known_value(self):
        series = [0.0, 10.0]
        assert coefficient_of_variation(series) == pytest.approx(1.0)

    def test_all_zero(self):
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_bursty_greater_than_smooth(self):
        rng = np.random.default_rng(0)
        smooth = 100 + rng.normal(0, 1, 1000)
        bursty = np.where(rng.random(1000) < 0.05, 1000.0, 50.0)
        assert coefficient_of_variation(bursty) > coefficient_of_variation(smooth)

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [np.nan]])
    def test_invalid_input(self, bad):
        with pytest.raises(ConfigError):
            coefficient_of_variation(bad)
