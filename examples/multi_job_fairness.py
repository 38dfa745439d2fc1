#!/usr/bin/env python3
"""Holistic multi-job control with proportional sharing (Fig. 5 in miniature).

Three jobs with different reservations (20K/30K/50K under a 100 KOps/s
cluster cap) enter the system at different times.  The control plane's
feedback loop measures each job's demand every second and re-provisions
every stage: reservations are guaranteed, leftover rate flows to hungry
jobs in proportion to their reservations, and shares rebalance as jobs
enter and leave.

Run:  python examples/multi_job_fairness.py
"""

from __future__ import annotations

from repro.analysis.fairness import jains_index, reservation_satisfaction
from repro.analysis.plots import ascii_plot
from repro.core.algorithms import ProportionalSharing
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.workloads.abci import generate_mdt_trace

CAP = 100e3
RESERVATIONS = {"job1": 20e3, "job2": 30e3, "job3": 50e3}


def main() -> None:
    trace = generate_mdt_trace(seed=7, duration=360 * 60.0)  # 6 min of replay
    world = ReplayWorld(
        Setup.PADLL,
        sample_period=5.0,
        algorithm=ProportionalSharing(CAP),
    )
    for i, (job_id, reservation) in enumerate(RESERVATIONS.items()):
        world.add_job(
            JobSpec(
                job_id=job_id,
                trace=trace,
                setup=Setup.PADLL,
                channel_mode="per-class",
                start=i * 60.0,  # jobs enter a minute apart
            )
        )
        world.set_reservation(job_id, reservation)

    result = world.run(900.0)

    print(
        ascii_plot(
            {j: result.job_rate_series(j)[1] for j in RESERVATIONS},
            title=f"proportional sharing under a {CAP / 1e3:.0f} KOps/s cap",
            height=12,
        )
    )
    agg = result.aggregate_job_rate()
    print(f"aggregate peak: {agg.max() / 1e3:.1f} KOps/s (cap {CAP / 1e3:.0f}K)")

    achieved = {}
    demands = {}
    for job_id in RESERVATIONS:
        times, rates = result.job_rate_series(job_id)
        active = rates[rates > 0]
        achieved[job_id] = float(active.mean()) if active.size else 0.0
        demands[job_id] = float(
            result.jobs[job_id].submitted_ops
            / max(1.0, result.jobs[job_id].completed_at or 900.0)
        )
    satisfaction = reservation_satisfaction(achieved, RESERVATIONS, demands)
    for job_id in RESERVATIONS:
        done = result.jobs[job_id].completed_at
        print(
            f"{job_id}: reserved {RESERVATIONS[job_id] / 1e3:4.0f}K  "
            f"mean achieved {achieved[job_id] / 1e3:6.1f}K  "
            f"reservation satisfaction {satisfaction[job_id] * 100:5.1f}%  "
            f"finished {'-' if done is None else f'{done / 60:.1f} min'}"
        )
    print(f"Jain's fairness index of achieved rates: "
          f"{jains_index(list(achieved.values())):.3f}")


if __name__ == "__main__":
    main()
