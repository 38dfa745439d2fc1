"""Shape tests for the figure experiments (shortened durations).

The benchmarks run the full paper-scale configurations; these tests run
the same code paths at reduced scale so the whole suite stays fast while
still pinning every claim's direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig4 import (
    derive_step_limits,
    run_fig4_data,
    run_fig4_metadata,
    step_count,
)
from repro.experiments.fig5 import run_fig5
from repro.experiments.harm import run_harm
from repro.experiments.overhead import run_live_overhead, run_sim_overhead

WEEK = 7 * 24 * 3600.0


class TestFig1:
    def test_statistics_within_paper_bands(self):
        result = run_fig1(seed=0, duration=WEEK)
        assert result.mean_rate == pytest.approx(200e3, rel=0.3)
        assert result.peak_rate >= 0.85e6
        assert result.fraction_above_400k > 0.03
        assert result.fraction_below_50k > 0.03
        assert result.longest_sustained_hours >= 1.0

    def test_paper_rows_render(self):
        result = run_fig1(seed=0, duration=3600.0 * 6)
        rows = result.paper_rows()
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)


class TestFig2:
    def test_shares_and_rates(self):
        result = run_fig2(seed=0, duration=WEEK)
        assert result.top4_share == pytest.approx(0.98, abs=0.015)
        assert result.mean_rates["getattr"] == pytest.approx(95.8e3, rel=0.35)
        assert result.mean_rates["open"] == pytest.approx(29e3, rel=0.35)
        assert result.mean_rates["close"] == pytest.approx(43.5e3, rel=0.35)
        # getattr dominates, as in the paper's Fig. 2 bar chart.
        assert max(result.totals, key=result.totals.get) == "getattr"


class TestFig4Metadata:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4_metadata("open", seed=0, duration=720.0, step_period=180.0)

    def test_padll_never_exceeds_limit(self, result):
        times, rates = result.series["padll"]
        limits = result.limit_series(times)
        # Mask one loop interval after each step change (enforcement lag).
        mask = np.ones(len(times), dtype=bool)
        for k in range(1, len(result.limits)):
            mask &= ~((times >= k * 180.0) & (times < k * 180.0 + 10.0))
        assert (rates[mask] <= limits[mask] * 1.02 + 200.0).all()

    def test_padll_tracks_baseline_under_loose_limit(self, result):
        """Step 1 (limit > peak): padll == baseline."""
        bt, br = result.series["baseline"]
        pt, pr = result.series["padll"]
        window = (bt >= 190.0) & (bt < 350.0)
        n = min(len(br), len(pr))
        # Backlog from step 0 may drain early in the window; compare tails.
        tail = (bt >= 260.0) & (bt < 350.0)
        assert np.corrcoef(br[:n][tail[:n]], pr[:n][tail[:n]])[0, 1] > 0.9

    def test_passthrough_overlaps_baseline(self, result):
        bt, br = result.series["baseline"]
        xt, xr = result.series["passthrough"]
        n = min(len(br), len(xr))
        assert np.allclose(br[:n], xr[:n], rtol=1e-6)

    def test_backlog_catchup_exceeds_baseline(self, result):
        """After an aggressive step the backlog drains: padll > baseline
        somewhere (the paper's getattr 6-12 min observation)."""
        bt, br = result.series["baseline"]
        pt, pr = result.series["padll"]
        n = min(len(br), len(pr))
        assert (pr[:n] > br[:n] + 1.0).any()

    def test_all_ops_eventually_delivered(self, result):
        bt, br = result.series["baseline"]
        pt, pr = result.series["padll"]
        assert np.sum(pr) == pytest.approx(np.sum(br), rel=0.02)

    def test_per_class_target(self):
        result = run_fig4_metadata(
            "metadata", seed=0, duration=360.0, step_period=120.0
        )
        times, rates = result.series["padll"]
        limits = result.limit_series(times)
        mask = np.ones(len(times), dtype=bool)
        for k in range(1, len(result.limits)):
            mask &= ~((times >= k * 120.0) & (times < k * 120.0 + 10.0))
        assert (rates[mask] <= limits[mask] * 1.02 + 200.0).all()

    def test_invalid_target(self):
        with pytest.raises(ConfigError):
            run_fig4_metadata("frobnicate")


class TestFig4Data:
    def test_write_panel(self):
        result = run_fig4_data("write", seed=0, duration=240.0, step_period=60.0)
        times, rates = result.series["padll"]
        limits = result.limit_series(times)
        mask = np.ones(len(times), dtype=bool)
        for k in range(1, len(result.limits)):
            mask &= ~((times >= k * 60.0) & (times < k * 60.0 + 10.0))
        assert (rates[mask] <= limits[mask] * 1.05 + 50.0).all()

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            run_fig4_data("scan")


class TestDeriveStepLimits:
    def test_pattern_mixes_throttle_and_headroom(self):
        rates = np.linspace(10.0, 100.0, 100)
        limits = derive_step_limits(rates, 5)
        assert len(limits) == 5
        assert limits[1] > rates.max()  # headroom step
        assert limits[2] < np.median(rates)  # aggressive step

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            derive_step_limits(np.array([]), 3)


class TestStepCount:
    def test_steps_cover_the_duration(self):
        assert step_count(1800.0, 360.0) == 5
        assert step_count(1801.0, 360.0) == 6
        assert step_count(10.0, 360.0) == 1

    @pytest.mark.parametrize("period", [0.0, -5.0])
    def test_non_positive_period_rejected(self, period):
        with pytest.raises(ConfigError, match="step_period must be > 0"):
            step_count(60.0, period)
        with pytest.raises(ConfigError, match="step_period must be > 0"):
            run_fig4_data("write", duration=60.0, step_period=period)

    def test_negative_drain_tail_rejected(self):
        with pytest.raises(ConfigError, match="drain_tail must be >= 0"):
            run_fig4_metadata("open", duration=60.0, step_period=30.0, drain_tail=-3.0)


class TestFig5Short:
    """Reduced Fig. 5 (12-minute traces) pinning the qualitative shapes."""

    DURATION = 1500.0

    @pytest.fixture(scope="class")
    def results(self):
        import repro.experiments.fig5 as fig5
        from repro.workloads.abci import generate_mdt_trace

        out = {}
        for name in fig5.FIG5_SETUPS:
            out[name] = run_fig5(name, seed=0, duration=self.DURATION)
        return out

    def test_baseline_bursty_padll_flat(self, results):
        base_agg = results["baseline"].aggregate()[1]
        static_agg = results["static"].aggregate()[1]
        assert base_agg.max() > static_agg.max()

    def test_padll_caps_respected(self, results):
        for name in ("static", "priority", "proportional"):
            agg = results[name].aggregate()[1]
            assert agg.max() <= 300e3 * 1.05 + 1e3, name

    def test_priority_rates_ordered(self, results):
        r = results["priority"]
        med = {}
        for job in ("job1", "job2", "job4"):
            times, rates = r.job_series[job]
            active = rates[(times >= 600) & (times <= 900) & (rates > 0)]
            med[job] = np.median(active)
        # job1's 40K cap binds (median load is ~55-70K), so it is pinned at
        # exactly its priority rate; higher-priority jobs run at their
        # (higher) demand or cap.
        assert med["job1"] == pytest.approx(40e3, rel=0.05)
        assert med["job2"] > med["job1"]
        assert med["job4"] > med["job1"]
        # Never above the assigned caps.
        for job, cap in (("job1", 40e3), ("job2", 60e3), ("job4", 120e3)):
            times, rates = r.job_series[job]
            assert rates.max() <= cap * 1.05 + 1e3


class TestHarmShort:
    def test_unprotected_fails_protected_survives(self):
        unprotected = run_harm(protected=False, seed=0, duration=300.0)
        protected = run_harm(protected=True, seed=0, duration=300.0)
        assert unprotected.mds_failed
        assert not protected.mds_failed
        assert protected.served_ops > unprotected.served_ops


class TestOverhead:
    def test_sim_overhead_below_paper_bound(self):
        result = run_sim_overhead(targets=("open",), seed=0, duration=240.0)
        assert result.worst_delta <= 0.009  # the paper's 0.9 %

    def test_live_overhead_measurable(self):
        result = run_live_overhead(n_ops=400, repeats=2)
        assert result.baseline_seconds > 0
        assert result.passthrough_seconds > 0
        # Interception adds cost but must stay within an order of magnitude.
        assert result.relative_overhead < 10.0
