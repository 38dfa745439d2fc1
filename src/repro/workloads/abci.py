"""Synthetic PFS_A trace generator, calibrated to the paper's trace study.

The paper analyses 30 days of LustrePerfMon logs from ABCI's /group file
system (PFS_A) and reports these distributional facts, which this
generator reproduces:

* metadata operations arrive at ≈200 KOps/s on average (Fig. 1);
* the system serves sustained episodes above 400 KOps/s lasting hours to
  days, and bursts peaking at ≈1 MOps/s;
* the workload is volatile: periods at or below 50 KOps/s spike to
  450 KOps/s or higher;
* open, close, getattr and rename account for ≈98 % of all operations
  (Fig. 2), with average rates of ≈29, ≈43.5, ≈95.8 KOps/s for open,
  close and getattr respectively.

The rate process is a semi-Markov regime switch (idle / normal / high /
burst states with calibrated means, dwell times and time shares) with
AR(1)-correlated lognormal noise on top, so the series is volatile *and*
temporally coherent like the real thing.  The per-sample operation mix is
Dirichlet-jittered around the paper's shares.

The AR(1) noise is its recurrence ``x[t] = ar * x[t-1] + e[t]`` from 0 in a
Python loop: SciPy's ``lfilter([1], [1, -ar], e)`` rounds the same product,
then the same sum, so this is its output bit for bit without importing SciPy.

:func:`generate_mdt_trace` produces the single-MDT trace the paper's
replayer experiments use.  MDT load at PFS_A is skewed, so the chosen
("hot") MDT is calibrated independently: ≈133 KOps/s mean with bursts to
≈500 KOps/s, which after the paper's half-rate scale-down gives the
≈66 KOps/s per-job load that makes Fig. 5's numbers work out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.rng import make_rng
from repro.workloads.trace import OpTrace

__all__ = [
    "RegimeState",
    "AbciTraceConfig",
    "generate_trace",
    "generate_aggregate_trace",
    "generate_mdt_trace",
    "AGGREGATE_MIX",
    "REPLAYER_MIX",
]

#: Seconds per trace sample: LustrePerfMon's 1-minute samples.
SAMPLE_PERIOD = 60.0
#: Dirichlet concentration of the per-sample mix jitter (higher = steadier).
MIX_CONCENTRATION = 500.0

#: Operation mix of the aggregate PFS_A load (Fig. 2).  The top four kinds
#: carry 98 % of the load; the remaining 2 % is spread over the rest of the
#: LustrePerfMon-monitored kinds.
AGGREGATE_MIX: Mapping[str, float] = {
    "getattr": 0.4790,
    "close": 0.2175,
    "open": 0.1450,
    "rename": 0.1385,
    "setattr": 0.0060,
    "unlink": 0.0045,
    "mkdir": 0.0030,
    "mknod": 0.0025,
    "rmdir": 0.0020,
    "statfs": 0.0010,
    "sync": 0.0010,
}

#: Mix used by the replayer experiments (one thread per kind, section IV):
#: the aggregate top-four renormalised.
REPLAYER_MIX: Mapping[str, float] = {
    "getattr": 0.4888,
    "close": 0.2219,
    "open": 0.1480,
    "rename": 0.1413,
}


@dataclass(frozen=True, slots=True)
class RegimeState:
    """One regime of the semi-Markov rate process."""

    name: str
    mean_rate: float  # ops/s while in this state
    mean_dwell: float  # seconds
    time_share: float  # long-run fraction of time spent here

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise ConfigError(f"state {self.name!r}: mean rate must be positive")
        if self.mean_dwell <= 0:
            raise ConfigError(f"state {self.name!r}: mean dwell must be positive")
        if not 0 < self.time_share <= 1:
            raise ConfigError(f"state {self.name!r}: time share must be in (0, 1]")


#: Regimes calibrated for the aggregate (all-MDT) PFS_A load.
AGGREGATE_STATES: Tuple[RegimeState, ...] = (
    RegimeState("idle", mean_rate=30e3, mean_dwell=2 * 3600, time_share=0.33),
    RegimeState("normal", mean_rate=180e3, mean_dwell=5 * 3600, time_share=0.44),
    RegimeState("high", mean_rate=460e3, mean_dwell=8 * 3600, time_share=0.19),
    RegimeState("burst", mean_rate=820e3, mean_dwell=15 * 60, time_share=0.04),
)

#: Regimes calibrated for the hot MDT used by the replayer experiments.
MDT_STATES: Tuple[RegimeState, ...] = (
    RegimeState("idle", mean_rate=20e3, mean_dwell=5 * 60, time_share=0.18),
    RegimeState("normal", mean_rate=104e3, mean_dwell=12 * 60, time_share=0.60),
    RegimeState("high", mean_rate=205e3, mean_dwell=15 * 60, time_share=0.14),
    # Burst episodes last ~8 original minutes so that Fig. 5's staggered
    # copies of the trace overlap in their bursts (the paper's baseline
    # aggregate peaks near 800 KOps/s with four jobs).
    RegimeState("burst", mean_rate=390e3, mean_dwell=8 * 60, time_share=0.08),
)


@dataclass(slots=True)
class AbciTraceConfig:
    """Knobs of the synthetic trace generator."""

    duration: float = 30 * 24 * 3600.0  # the paper's 30-day window
    states: Tuple[RegimeState, ...] = AGGREGATE_STATES
    mix: Mapping[str, float] = field(default_factory=lambda: dict(AGGREGATE_MIX))
    #: Std-dev of the lognormal noise on the rate.
    noise_sigma: float = 0.20
    #: AR(1) coefficient of the noise (temporal correlation between samples).
    noise_ar: float = 0.85
    #: Hard cap on the instantaneous rate (PFS_A bursts top out ≈1 MOps/s).
    rate_cap: float = 1.05e6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not self.states:
            raise ConfigError("need at least one regime state")
        if not self.mix:
            raise ConfigError("need a non-empty operation mix")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"mix shares must sum to 1, got {total}")
        if any(v <= 0 for v in self.mix.values()):
            raise ConfigError("mix shares must all be positive")
        if not 0 <= self.noise_ar < 1:
            raise ConfigError(f"noise_ar must be in [0, 1), got {self.noise_ar}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.rate_cap <= 0:
            raise ConfigError("rate_cap must be positive")

    @property
    def n_samples(self) -> int:
        return max(1, int(round(self.duration / SAMPLE_PERIOD)))

    def expected_mean_rate(self) -> float:
        """Time-share-weighted mean of the regime rates."""
        total_share = sum(s.time_share for s in self.states)
        return sum(s.mean_rate * s.time_share for s in self.states) / total_share


def _state_sequence(config: AbciTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-sample regime mean rates from the semi-Markov segment process.

    Segment states are drawn with probability proportional to
    ``time_share / mean_dwell`` so the realised *time* shares match the
    configured ones; dwell lengths are exponential around each state's
    mean (in whole samples, at least one).
    """
    states = config.states
    weights = np.array([s.time_share / s.mean_dwell for s in states])
    # Normaliser over the (small, config-fixed) state vector: the
    # pairwise order is pinned by the config shape, and the calibration
    # tests pin the resulting distribution.
    weights = weights / weights.sum()  # padll: allow(FLT001)
    # ``rng.choice(len(states), p=weights)``'s own draw, without its
    # per-call validation: one uniform against the normalised cumulative
    # weights (tests/workloads/test_abci.py holds the two equal).
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    n = config.n_samples
    means = np.empty(n)
    filled = 0
    while filled < n:
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        state = states[idx]
        dwell_samples = max(
            1, int(round(rng.exponential(state.mean_dwell) / SAMPLE_PERIOD))
        )
        end = min(n, filled + dwell_samples)
        means[filled:end] = state.mean_rate
        filled = end
    return means


def _colored_noise(
    n: int, sigma: float, ar: float, rng: np.random.Generator
) -> np.ndarray:
    """AR(1) Gaussian noise with stationary std ``sigma`` (see module doc)."""
    if sigma == 0 or n == 0:
        return np.zeros(n)
    innovation_std = sigma * np.sqrt(1 - ar * ar)
    e = rng.normal(0.0, innovation_std, size=n)
    if ar == 0:
        return e
    x, y = [], 0.0
    for value in e.tolist():
        y = ar * y + value
        x.append(y)
    return np.array(x)


def generate_trace(config: AbciTraceConfig) -> OpTrace:
    """Generate one synthetic trace according to ``config``."""
    rng = make_rng(config.seed)
    means = _state_sequence(config, rng)
    noise = _colored_noise(config.n_samples, config.noise_sigma, config.noise_ar, rng)
    rates = np.minimum(config.rate_cap, means * np.exp(noise))
    totals = rates * SAMPLE_PERIOD
    kinds = tuple(config.mix)
    alphas = np.array([config.mix.get(k, 0.0) for k in kinds]) * MIX_CONCENTRATION
    # Vectorised Dirichlet: normalised per-row Gamma draws.
    gammas = rng.gamma(shape=alphas, scale=1.0, size=(config.n_samples, len(kinds)))
    row_sums = gammas.sum(axis=1, keepdims=True)
    # Guard against the (measure-zero) all-zero row.
    row_sums[row_sums == 0] = 1.0
    shares = gammas / row_sums
    counts = shares * totals[:, None]
    return OpTrace(kinds, counts, sample_period=SAMPLE_PERIOD)


def generate_aggregate_trace(
    seed: int = 0, duration: float = 30 * 24 * 3600.0
) -> OpTrace:
    """The 30-day aggregate PFS_A trace (Figs. 1 and 2)."""
    return generate_trace(AbciTraceConfig(seed=seed, duration=duration))


def generate_mdt_trace(
    seed: int = 0,
    duration: float = 1800 * 60.0,
    mix: Optional[Mapping[str, float]] = None,
) -> OpTrace:
    """The hot-MDT trace the replayer consumes (sections IV-A and IV-B).

    ``duration`` defaults to 1800 minutes of original log time, which the
    replayer's 60x acceleration turns into the paper's 30-minute runs.
    """
    return generate_trace(
        AbciTraceConfig(
            seed=seed,
            duration=duration,
            states=MDT_STATES,
            mix=dict(mix) if mix is not None else dict(REPLAYER_MIX),
            noise_sigma=0.25,
            noise_ar=0.80,
            rate_cap=6.0e5,
        )
    )
