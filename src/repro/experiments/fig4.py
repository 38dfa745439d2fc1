"""EXP-F4 -- Fig. 4: per-operation type and class rate limiting.

Reproduces the paper's scenario: one job replays the hot-MDT trace
restricted to a single operation type (open, close, getattr -- rename
reported as similar) or to the whole metadata class (four replayer
threads), under three setups (baseline / passthrough / padll).  PADLL
throttles with a static rate whose value the administrator changes every
6 minutes (every minute for the data-operation panels, which use an
IOR-like workload whose delivered data-op rate is the panel).

Expected shapes (checked by the benchmarks):

* the padll series never exceeds the configured limit;
* where the limit exceeds the offered rate, padll tracks baseline;
* after aggressive throttling the backlog drains, so padll transiently
  exceeds baseline (the paper's getattr 6-12 min observation);
* passthrough is indistinguishable from baseline (<0.9 % difference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.analysis.plots import ascii_plot
from repro.core.differentiation import ClassifierRule
from repro.core.policies import PolicyRule, RuleScope, SteppedRate
from repro.core.requests import OperationClass, Request
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.token_bucket import UNLIMITED
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.pfs.client import PFS_MOUNT
from repro.simulation.engine import Environment
from repro.simulation.ticker import DT, Ticker
from repro.workloads.abci import generate_mdt_trace
from repro.workloads.ior import IORConfig, IORDriver, IORWorkload

__all__ = [
    "Fig4Result",
    "run_fig4_metadata",
    "run_fig4_data",
    "derive_step_limits",
    "step_count",
    "main",
]

#: Quantile pattern of the administrator's stepped limits, relative to the
#: baseline rate distribution: alternating between aggressive throttling
#: and headroom, which produces every regime the paper discusses.
STEP_QUANTILE_PATTERN: Tuple[float, ...] = (0.45, 1.25, 0.20, 0.95, 0.60)

METADATA_TARGETS = ("open", "close", "getattr", "rename", "metadata")
DATA_TARGETS = ("read", "write")


@dataclass(frozen=True, slots=True)
class Fig4Result:
    """One Fig. 4 panel: three setups' delivered-rate series."""

    target: str
    duration: float
    step_period: float
    limits: Tuple[float, ...]
    #: setup name -> (times, delivered ops/s).
    series: Mapping[str, Tuple[np.ndarray, np.ndarray]]

    def limit_at(self, t: float) -> float:
        idx = min(int(t // self.step_period), len(self.limits) - 1)
        return self.limits[idx]

    def limit_series(self, times: np.ndarray) -> np.ndarray:
        return np.array([self.limit_at(t) for t in times])


def step_count(duration: float, step_period: float) -> int:
    """How many administrator steps cover ``duration``: at least one."""
    if step_period <= 0:
        raise ConfigError(f"step_period must be > 0, got {step_period}")
    return max(1, int(np.ceil(duration / step_period)))


def derive_step_limits(
    baseline_rates: np.ndarray,
    n_steps: int,
    pattern: Sequence[float] = STEP_QUANTILE_PATTERN,
) -> Tuple[float, ...]:
    """Stepped limits from the baseline rate distribution.

    Pattern entries <= 1 are quantiles of the baseline series (throttling
    regimes); entries > 1 multiply the baseline peak (headroom regimes
    where padll must track baseline).
    """
    rates = np.asarray(baseline_rates, dtype=np.float64)
    rates = rates[rates > 0]
    if rates.size == 0:
        raise ConfigError("baseline series is empty or all-zero")
    limits = []
    for i in range(n_steps):
        p = pattern[i % len(pattern)]
        if p <= 1.0:
            limits.append(float(np.quantile(rates, p)))
        else:
            limits.append(float(rates.max() * p))
    return tuple(limits)


def _build_world(
    setup: Setup,
    target: str,
    seed: int,
    limits: Optional[Tuple[float, ...]],
    step_period: float,
    trace=None,
    telemetry=None,
) -> ReplayWorld:
    world = ReplayWorld(setup, sample_period=5.0, telemetry=telemetry)
    if trace is None:
        trace = generate_mdt_trace(seed=seed)
    single = target != "metadata"
    spec = JobSpec(
        job_id="job1",
        trace=trace,
        setup=setup,
        kinds=(target,) if single else None,
        channel_mode="per-op" if single else "per-class",
    )
    world.add_job(spec)
    if setup is Setup.PADLL:
        if limits is None:
            raise ConfigError("padll setup needs limits")
        world.install_policy(
            PolicyRule(
                name=f"fig4-{target}",
                scope=RuleScope(channel_id=target),
                schedule=SteppedRate.every(step_period, limits),
            )
        )
    return world


def run_fig4_metadata(
    target: str = "open",
    seed: int = 0,
    duration: float = 1800.0,
    step_period: float = 360.0,
    drain_tail: float = 300.0,
    telemetry_factory=None,
) -> Fig4Result:
    """One metadata panel of Fig. 4 (a single op type, or the class).

    ``telemetry_factory(setup_name)`` (optional) returns the
    :class:`~repro.telemetry.Telemetry` spine for each setup's world (or
    ``None`` to leave that world uninstrumented); telemetry never touches
    the simulated arithmetic, so results are bit-identical either way.
    """
    if target not in METADATA_TARGETS:
        raise ConfigError(
            f"target must be one of {METADATA_TARGETS}, got {target!r}"
        )
    if drain_tail < 0:
        raise ConfigError(f"drain_tail must be >= 0, got {drain_tail}")
    n_steps = step_count(duration, step_period)
    total = duration + drain_tail
    tel = telemetry_factory if telemetry_factory is not None else lambda name: None
    # The three setups replay the identical fixed-seed trace; generate it
    # once and share it (replayers never mutate the trace they read).
    trace = generate_mdt_trace(seed=seed)
    baseline = _build_world(
        Setup.BASELINE, target, seed, None, step_period, trace=trace,
        telemetry=tel("baseline"),
    ).run(total)
    base_times, base_rates = baseline.job_rate_series("job1")
    limits = derive_step_limits(base_rates[base_times < duration], n_steps)
    passthrough = _build_world(
        Setup.PASSTHROUGH, target, seed, None, step_period, trace=trace,
        telemetry=tel("passthrough"),
    ).run(total)
    padll = _build_world(
        Setup.PADLL, target, seed, limits, step_period, trace=trace,
        telemetry=tel("padll"),
    ).run(total)
    series = {
        "baseline": baseline.job_rate_series("job1"),
        "passthrough": passthrough.job_rate_series("job1"),
        "padll": padll.job_rate_series("job1"),
    }
    return Fig4Result(
        target=target,
        duration=duration,
        step_period=step_period,
        limits=limits,
        series=series,
    )


class _DataWorld:
    """Fig. 4's data panels: an IOR-like job's data ops, counted where they
    are delivered (PADLL throttles them before the file system; the panel
    is the delivered rate, so nothing downstream is modelled)."""

    def __init__(self, setup: Setup, mode: str, seed: int) -> None:
        self.env = Environment()
        self.window = 0.0
        self.stage: Optional[DataPlaneStage] = None
        self.workload = IORWorkload(IORConfig(mode=mode, seed=seed))

        def deliver(request: Request) -> None:
            self.window += request.count

        if setup is Setup.BASELINE:
            submit = deliver
        else:
            self.stage = DataPlaneStage(
                StageIdentity("ior-stage", "ior"),
                sink=deliver,
                pfs_mounts=(PFS_MOUNT,),
            )
            self.stage.create_channel(mode, rate=UNLIMITED)
            self.stage.add_classifier_rule(
                ClassifierRule(
                    name="data-rule",
                    channel_id=mode,
                    op_classes=frozenset({OperationClass.DATA}),
                )
            )
            submit = lambda req: self.stage.submit(req, self.env.now)  # noqa: E731
        self.driver = IORDriver(self.env, self.workload, submit)
        if self.stage is not None:
            Ticker(self.env, DT, self._drain, name="data-drain", defer=1)
        self.schedule: Optional[SteppedRate] = None
        self.times: list[float] = []
        self.rates: list[float] = []
        Ticker(self.env, 5.0, self._sample, name="data-sample", defer=3)

    def _drain(self, now: float) -> None:
        if self.schedule is not None:
            self.stage.set_channel_rate(
                self.workload.config.mode, self.schedule.rate_at(now), now
            )
        self.stage.drain(now)

    def _sample(self, now: float) -> None:
        self.times.append(now)
        self.rates.append(self.window / 5.0)
        self.window = 0.0

    def run(self, duration: float) -> Tuple[np.ndarray, np.ndarray]:
        self.env.run(until=duration)
        return np.array(self.times), np.array(self.rates)


def run_fig4_data(
    mode: str = "write",
    seed: int = 0,
    duration: float = 600.0,
    step_period: float = 60.0,
) -> Fig4Result:
    """One data panel of Fig. 4 (read or write, limits change each minute)."""
    if mode not in DATA_TARGETS:
        raise ConfigError(f"mode must be one of {DATA_TARGETS}, got {mode!r}")
    n_steps = step_count(duration, step_period)
    baseline_world = _DataWorld(Setup.BASELINE, mode, seed)
    base = baseline_world.run(duration)
    limits = derive_step_limits(base[1], n_steps)
    passthrough = _DataWorld(Setup.PASSTHROUGH, mode, seed).run(duration)
    padll_world = _DataWorld(Setup.PADLL, mode, seed)
    padll_world.schedule = SteppedRate.every(step_period, limits)
    padll = padll_world.run(duration)
    return Fig4Result(
        target=mode,
        duration=duration,
        step_period=step_period,
        limits=limits,
        series={"baseline": base, "passthrough": passthrough, "padll": padll},
    )


def main(seed: int = 0) -> Dict[str, Fig4Result]:
    results: Dict[str, Fig4Result] = {}
    for target in ("open", "close", "getattr", "metadata"):
        result = run_fig4_metadata(target, seed=seed)
        results[target] = result
        print(
            ascii_plot(
                {name: rates for name, (_, rates) in result.series.items()},
                title=f"Fig. 4 [{target}]: rate limiting "
                f"(limits {', '.join(f'{l / 1e3:.0f}K' for l in result.limits)})",
                height=10,
            )
        )
    for mode in DATA_TARGETS:
        result = run_fig4_data(mode, seed=seed)
        results[mode] = result
        print(
            ascii_plot(
                {name: rates for name, (_, rates) in result.series.items()},
                title=f"Fig. 4 [{mode}]: data-op rate limiting",
                height=10,
            )
        )
    return results


if __name__ == "__main__":
    main()
