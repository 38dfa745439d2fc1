"""EXP-F4S -- Fig. 4 at cluster scale on the sharded fluid engine.

The classic :mod:`repro.experiments.fig4` replays a real trace through a
discrete-event world -- faithful, but single-core and capped around
rack-scale job counts.  This variant re-stages the same administrator
story (stepped limits derived from a fixed-seed baseline, alternating
throttling and headroom regimes) on the
:class:`~repro.simulation.sharded.ShardedSimulation`, where 10^4 stages
/ 10^6 simulated clients fit in one run:

1. *baseline phase*: the fluid cluster runs unthrottled; its aggregate
   served series plays the role of fig4's baseline rate series.
2. *padll phase*: a fresh, identically-seeded cluster runs under a
   :class:`~repro.core.algorithms.ProportionalSharing` allocator whose
   capacity steps through :func:`~repro.experiments.fig4.derive_step_limits`
   on the fig4 schedule -- each epoch the real control plane merges
   split-job demand partials and fans per-stage rates back out.

Expected shapes mirror fig4: the padll aggregate hugs the stepped
capacity during throttling regimes and tracks baseline under headroom.
Digests of both phases are bit-identical across shard counts, which is
what CI's ``sharded-smoke`` job asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.analysis.plots import ascii_plot
from repro.core.algorithms import ProportionalSharing
from repro.experiments.fig4 import derive_step_limits, step_count
from repro.simulation.sharded import (
    FluidConfig,
    ShardedConfig,
    ShardedResult,
    ShardedSimulation,
)
from repro.simulation.ticker import DT

__all__ = ["Fig4ShardedResult", "run_fig4_sharded", "main"]


@dataclass(frozen=True)
class Fig4ShardedResult:
    """Baseline + padll phases of one sharded fig4-style run."""

    config: ShardedConfig
    duration: float
    step_period: float
    limits: Tuple[float, ...]
    #: phase name -> per-tick aggregate served series (ops per tick).
    series: Mapping[str, np.ndarray]
    #: phase name -> full per-rack result.
    results: Mapping[str, ShardedResult] = field(repr=False)

    @property
    def n_clients(self) -> int:
        return self.config.n_clients

    def limit_at(self, t: float) -> float:
        idx = min(int(t // self.step_period), len(self.limits) - 1)
        return self.limits[idx]

    def digest(self) -> str:
        """SHA-256 over both phases' full outputs plus the limits."""
        digest = hashlib.sha256()
        for limit in self.limits:
            digest.update(limit.hex().encode())
        for name in sorted(self.results):
            digest.update(name.encode())
            digest.update(self.results[name].digest().encode())
        return digest.hexdigest()


def run_fig4_sharded(
    seed: int = 0,
    n_jobs: int = 100,
    stages_per_job: int = 100,
    n_racks: int = 32,
    n_shards: int = 1,
    clients_per_stage: int = 100,
    duration: float = 240.0,
    step_period: float = 60.0,
    placement: str = "split",
) -> Fig4ShardedResult:
    """Run the two-phase sharded fig4 story; defaults hit 10^6 clients.

    ``n_shards`` partitions the rack set into that many in-process rack
    blocks; any value produces bit-identical results (asserted by tests
    and CI).  The control epoch is :class:`ShardedConfig`'s default
    ``loop_interval``.
    """
    n_steps = step_count(duration, step_period)
    if duration < 2 * step_period:
        raise ConfigError(
            f"duration {duration} too short for step_period {step_period}: "
            "need at least two administrator steps"
        )
    config = ShardedConfig(
        n_racks=n_racks,
        n_shards=n_shards,
        n_jobs=n_jobs,
        stages_per_job=stages_per_job,
        placement=placement,
        fluid=FluidConfig(seed=seed, clients_per_stage=clients_per_stage),
    )

    # No name keeps a simulation: finish() closes it, so reference
    # counting frees the baseline world before the padll one is built.
    baseline = ShardedSimulation(config, algorithm=None).run(duration).finish()
    baseline_rates = baseline.aggregate_served / DT

    limits = derive_step_limits(baseline_rates, n_steps)

    def stepped_capacity(control_plane, now: float) -> None:
        # The administrator's schedule: swap in a fresh allocator sized
        # to the current step's limit right before the control tick.
        idx = min(int(now // step_period), len(limits) - 1)
        control_plane.algorithm = ProportionalSharing(capacity=limits[idx])

    padll = ShardedSimulation(
        config,
        algorithm=ProportionalSharing(capacity=limits[0]),
        epoch_hook=stepped_capacity,
    ).run(duration).finish()

    return Fig4ShardedResult(
        config=config,
        duration=duration,
        step_period=step_period,
        limits=limits,
        series={
            "baseline": baseline.aggregate_served,
            "padll": padll.aggregate_served,
        },
        results={"baseline": baseline, "padll": padll},
    )


def main(seed: int = 0) -> Fig4ShardedResult:
    result = run_fig4_sharded(seed=seed)
    print(
        ascii_plot(
            {name: series for name, series in result.series.items()},
            title=(
                f"Fig. 4 (sharded, {result.config.n_stages} stages / "
                f"{result.n_clients} clients): limits "
                f"{', '.join(f'{l / 1e6:.1f}M' for l in result.limits)}"
            ),
            height=10,
        )
    )
    print(f"digest {result.digest()}")
    return result


if __name__ == "__main__":
    main()
