"""Calibration tests: the synthetic trace must reproduce the paper's stats.

These assert the *distributional facts* section II-A reports, with bands
wide enough to hold across seeds but tight enough that a de-calibrated
generator fails.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.abci import (
    AGGREGATE_MIX,
    AbciTraceConfig,
    RegimeState,
    generate_aggregate_trace,
    generate_mdt_trace,
    generate_trace,
)

# One day of trace is plenty for rate-band checks and fast to generate.
DAY = 24 * 3600.0

#: SHA-256 of each trace's kinds and count bytes (:func:`trace_digest`).
#: The calibration bands above hold across seeds; these pin the exact
#: floats, so a generator change that moves one ulp fails here.
MDT_DIGESTS = {
    0: "1f93995c43efab2a0ee4f266c15d0771af0671f48525fdcb365921fb2a1fcddb",
    1: "ad15bb722b292edef763a5e121cf539675ecd9b5edc2aa675bdc9b8ea43e551c",
    2: "602669882573b65bbc2a92b3643a3f14d958ce7fb53069f1229f4c53083f73d5",
    3: "37610ba6afa3540d65d2347002a3b22e198b287ee9713f766bf3056650a77333",
}
AGGREGATE_DIGEST = "ff204e4085818256768bb39875d8774f2ffa83cfef2ab48a1aaee2059ea80950"


def trace_digest(trace) -> str:
    digest = hashlib.sha256(",".join(trace.kinds).encode())
    digest.update(trace.counts.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def aggregate():
    """Full 30-day trace, shared across tests in this module."""
    return generate_aggregate_trace(seed=0)


class TestAggregateCalibration:
    def test_mean_rate_near_200k(self, aggregate):
        assert aggregate.mean_rate() == pytest.approx(200e3, rel=0.25)

    def test_bursts_reach_1mops(self, aggregate):
        assert aggregate.peak_rate() >= 0.9e6
        assert aggregate.peak_rate() <= 1.1e6

    def test_sustained_episodes_above_400k(self, aggregate):
        rates = aggregate.rates()
        above = rates > 400e3
        assert 0.05 <= above.mean() <= 0.40
        # Longest sustained episode lasts hours (>= 60 consecutive minutes).
        padded = np.concatenate(([False], above, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        lengths = edges[1::2] - edges[0::2]
        assert lengths.max() >= 60

    def test_volatility_dips_below_50k(self, aggregate):
        rates = aggregate.rates()
        assert (rates <= 50e3).mean() >= 0.05

    def test_top4_share_near_98pct(self, aggregate):
        shares = aggregate.shares()
        top4 = sum(shares[k] for k in ("open", "close", "getattr", "rename"))
        assert top4 == pytest.approx(0.98, abs=0.01)

    def test_per_op_mean_rates(self, aggregate):
        assert aggregate.mean_rate("getattr") == pytest.approx(95.8e3, rel=0.3)
        assert aggregate.mean_rate("open") == pytest.approx(29e3, rel=0.3)
        assert aggregate.mean_rate("close") == pytest.approx(43.5e3, rel=0.3)

    def test_getattr_total_hundreds_of_billions(self, aggregate):
        assert aggregate.total("getattr") == pytest.approx(250e9, rel=0.35)


class TestMdtCalibration:
    def test_halved_mean_supports_fig5(self):
        """Mean halved rate ~60-75 KOps/s: under the 75K static cap, above
        the 40K priority floor (what makes Fig. 5's timings work)."""
        trace = generate_mdt_trace(seed=0)
        halved = trace.mean_rate() * 0.5
        assert 55e3 <= halved <= 78e3

    def test_bursts_overlap_capable(self):
        """Burst peaks (halved) in the 150-300K band so four staggered
        copies can reach the paper's ~800 KOps/s baseline aggregate."""
        trace = generate_mdt_trace(seed=0)
        halved_peak = trace.peak_rate() * 0.5
        assert 150e3 <= halved_peak <= 310e3

    def test_replayer_kinds_only(self):
        trace = generate_mdt_trace(seed=0)
        assert set(trace.kinds) == {"open", "close", "getattr", "rename"}


class TestDeterminism:
    def test_same_seed_identical(self):
        # OpTrace.__eq__ is np.allclose (CSV keeps 6 digits): compare bytes.
        a = generate_mdt_trace(seed=5)
        b = generate_mdt_trace(seed=5)
        assert a.kinds == b.kinds
        assert a.counts.tobytes() == b.counts.tobytes()

    @pytest.mark.parametrize("seed", sorted(MDT_DIGESTS))
    def test_mdt_trace_bytes_pinned(self, seed):
        assert trace_digest(generate_mdt_trace(seed=seed)) == MDT_DIGESTS[seed]

    def test_aggregate_trace_bytes_pinned(self, aggregate):
        assert trace_digest(aggregate) == AGGREGATE_DIGEST

    def test_different_seeds_differ(self):
        a = generate_mdt_trace(seed=5)
        b = generate_mdt_trace(seed=6)
        assert a != b


class TestConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            AbciTraceConfig(mix={"open": 0.5})

    def test_mix_positive(self):
        with pytest.raises(ConfigError):
            AbciTraceConfig(mix={"open": 1.5, "close": -0.5})

    def test_state_validation(self):
        with pytest.raises(ConfigError):
            RegimeState("s", mean_rate=0.0, mean_dwell=1.0, time_share=0.5)
        with pytest.raises(ConfigError):
            RegimeState("s", mean_rate=1.0, mean_dwell=0.0, time_share=0.5)
        with pytest.raises(ConfigError):
            RegimeState("s", mean_rate=1.0, mean_dwell=1.0, time_share=0.0)

    def test_noise_params(self):
        with pytest.raises(ConfigError):
            AbciTraceConfig(noise_ar=1.0)
        with pytest.raises(ConfigError):
            AbciTraceConfig(noise_sigma=-0.1)

    def test_expected_mean_rate(self):
        config = AbciTraceConfig(duration=DAY)
        expected = config.expected_mean_rate()
        assert 150e3 <= expected <= 260e3

    def test_rate_cap_enforced(self):
        config = AbciTraceConfig(duration=DAY, rate_cap=100e3, seed=1)
        trace = generate_trace(config)
        assert trace.peak_rate() <= 100e3 * (1 + 1e-9)

    def test_custom_duration(self):
        trace = generate_aggregate_trace(seed=0, duration=3600.0)
        assert trace.n_samples == 60
