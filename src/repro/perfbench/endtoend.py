"""End-to-end benchmark: one fig4-scale experiment, wall-clock timed.

This exercises the full stack -- trace generation, replayers, stages,
classifier, token buckets, the control loop, the MDS model, and the
collector -- exactly the path every figure regeneration takes.  The
metric is simulated seconds per wall second, so higher is faster.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.experiments.fig4 import run_fig4_metadata

__all__ = ["bench_fig4", "bench_fig4_sharded"]


def bench_fig4(
    seed: int = 0,
    duration: float = 600.0,
    step_period: float = 120.0,
    drain_tail: float = 120.0,
) -> Dict[str, float]:
    """Run the fig4 'open' panel (all three setups) and time it."""
    start = time.perf_counter()
    result = run_fig4_metadata(
        "open",
        seed=seed,
        duration=duration,
        step_period=step_period,
        drain_tail=drain_tail,
    )
    elapsed = time.perf_counter() - start
    # 3 setups (baseline / passthrough / padll) each simulate the window.
    sim_seconds = 3.0 * (duration + drain_tail)
    return {
        "value": sim_seconds / elapsed,
        "work": sim_seconds,
        "elapsed_s": elapsed,
        "n_limits": float(len(result.limits)),
    }


def bench_fig4_sharded(
    seed: int = 0,
    n_jobs: int = 100,
    stages_per_job: int = 100,
    duration: float = 60.0,
) -> Dict[str, float]:
    """Sharded fig4 at 10^6 simulated clients.

    Times the multi-shard run (``value`` = simulated seconds per wall
    second over both phases).  The fluid tick is ``dt=0.2`` -- five
    fluid ticks per 1 s control epoch -- so the measurement weights the
    per-stage data-plane arithmetic the way a deployment-resolution run
    would, rather than letting the control-plane cost dominate.
    """
    from repro.experiments.fig4_sharded import run_fig4_sharded

    n_racks = min(16, max(1, n_jobs))
    n_shards = min(4, n_racks, os.cpu_count() or 1)
    step_period = duration / 4.0
    start = time.perf_counter()
    sharded = run_fig4_sharded(
        seed=seed,
        n_jobs=n_jobs,
        stages_per_job=stages_per_job,
        n_racks=n_racks,
        n_shards=n_shards,
        clients_per_stage=100,
        duration=duration,
        step_period=step_period,
        dt=0.2,
    )
    elapsed = time.perf_counter() - start
    # Two phases (baseline + padll) each simulate the window.
    sim_seconds = 2.0 * duration
    return {
        "value": sim_seconds / elapsed,
        "work": sim_seconds,
        "elapsed_s": elapsed,
        "n_stages": float(sharded.config.n_stages),
        "n_clients": float(sharded.n_clients),
        "n_shards": float(n_shards),
    }
