"""EXP-F5 -- Fig. 5: per-job metadata control over four concurrent jobs.

The scenario: the administrator caps cluster-wide metadata submissions at
300 KOps/s.  Four jobs run the same metadata workload (the Fig. 4
per-class workload) and enter the system every 3 minutes.  Four setups:

* **Baseline** -- nobody is throttled (today's supercomputers);
* **Static** -- every job statically limited to 75 KOps/s;
* **Priority** -- jobs statically limited to 40/60/80/120 KOps/s;
* **Proportional sharing** -- the control algorithm guarantees each job
  its reservation (same values as Priority) and redistributes leftover
  rate proportionally as jobs enter and leave.

Expected shapes: Baseline is volatile with peaks near 800 KOps/s; the
PADLL setups flatten each job at its provisioned rate and kill the
burstiness; Static and Proportional finish all jobs about when Baseline
does; Priority's job1 (40 K) runs ≈20 minutes longer; Proportional
sharing completes every job inside the 45-minute window while never
letting the aggregate exceed 300 KOps/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.analysis.burstiness import coefficient_of_variation
from repro.analysis.plots import ascii_plot
from repro.core.algorithms import (
    AllocationAlgorithm,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
)
from repro.experiments.harness import JobResult, JobSpec, ReplayWorld, Setup
from repro.workloads.abci import generate_mdt_trace

__all__ = ["Fig5Result", "run_fig5", "FIG5_SETUPS", "main"]

FIG5_SETUPS = ("baseline", "static", "priority", "proportional")

#: Per-job rates of the Priority setup (and the Proportional reservations).
PRIORITY_RATES: Mapping[str, float] = {
    "job1": 40e3,
    "job2": 60e3,
    "job3": 80e3,
    "job4": 120e3,
}

CLUSTER_CAP = 300e3
STATIC_RATE = 75e3
JOB_STAGGER = 180.0
N_JOBS = 4


@dataclass(frozen=True, slots=True)
class Fig5Result:
    """One Fig. 5 panel (one setup)."""

    setup_name: str
    duration: float
    #: job id -> (times, delivered ops/s).
    job_series: Mapping[str, Tuple[np.ndarray, np.ndarray]]
    jobs: Mapping[str, JobResult]
    enforcement_log: Tuple[Tuple[float, str, float], ...]

    def aggregate(self) -> Tuple[np.ndarray, np.ndarray]:
        names = sorted(self.job_series)
        times = self.job_series[names[0]][0]
        n = min(len(self.job_series[j][1]) for j in names)
        total = np.sum([self.job_series[j][1][:n] for j in names], axis=0)
        return times[:n], total

    def completion_minutes(self) -> Dict[str, Optional[float]]:
        return {
            job_id: (None if j.completed_at is None else j.completed_at / 60.0)
            for job_id, j in self.jobs.items()
        }


def _algorithm_for(setup_name: str) -> Optional[AllocationAlgorithm]:
    if setup_name == "baseline":
        return None
    if setup_name == "static":
        return StaticPartition(STATIC_RATE)
    if setup_name == "priority":
        return PriorityPartition(dict(PRIORITY_RATES))
    if setup_name == "proportional":
        return ProportionalSharing(CLUSTER_CAP)
    raise ConfigError(f"unknown Fig. 5 setup {setup_name!r}")


def run_fig5(
    setup_name: str = "proportional",
    seed: int = 0,
    duration: float = 3600.0,
    telemetry=None,
) -> Fig5Result:
    """Run one Fig. 5 setup to completion (or ``duration``).

    ``telemetry`` (optional) instruments the world; the simulated
    arithmetic is untouched, so results are bit-identical either way.
    """
    algorithm = _algorithm_for(setup_name)
    setup = Setup.BASELINE if algorithm is None else Setup.PADLL
    world = ReplayWorld(
        setup,
        sample_period=10.0,
        loop_interval=1.0,
        algorithm=algorithm,
        telemetry=telemetry,
    )
    trace = generate_mdt_trace(seed=seed)
    for i in range(N_JOBS):
        job_id = f"job{i + 1}"
        world.add_job(
            JobSpec(
                job_id=job_id,
                trace=trace,
                setup=setup,
                channel_mode="per-class",
                start=i * JOB_STAGGER,
            )
        )
        if setup_name == "proportional":
            world.set_reservation(job_id, PRIORITY_RATES[job_id])
    result = world.run(duration)
    job_series = {
        job_id: result.job_rate_series(job_id) for job_id in result.jobs
    }
    return Fig5Result(
        setup_name=setup_name,
        duration=duration,
        job_series=job_series,
        jobs=result.jobs,
        enforcement_log=tuple(result.enforcement_log),
    )


def run_all(seed: int = 0, duration: float = 3600.0) -> Dict[str, Fig5Result]:
    return {name: run_fig5(name, seed=seed, duration=duration) for name in FIG5_SETUPS}


def main(seed: int = 0) -> Dict[str, Fig5Result]:
    results = run_all(seed=seed)
    for name, result in results.items():
        print(
            ascii_plot(
                {j: rates for j, (_, rates) in sorted(result.job_series.items())},
                title=f"Fig. 5 [{name}]: per-job metadata throughput (ops/s)",
                height=10,
            )
        )
        done = result.completion_minutes()
        row = "  ".join(
            f"{j}: {'-' if m is None else f'{m:.1f} min'}" for j, m in sorted(done.items())
        )
        print(f"  completions  {row}")
        agg_cov = coefficient_of_variation(result.aggregate()[1][1:])
        print(f"  aggregate CoV {agg_cov:.2f}")
    return results


if __name__ == "__main__":
    main()
