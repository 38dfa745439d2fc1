"""Ablations of PADLL's design choices (DESIGN.md's extension items).

Three sweeps, each isolating one knob the paper fixes implicitly:

* **control-plane lag** -- enforcement messages arriving late leave a
  newly arrived job unthrottled for the lag window, so cluster-cap
  violations (and excess operations reaching the PFS) grow with latency.
  This quantifies the section-VI control-plane scalability/dependability
  question: how fast must the loop be to keep arrival transients bounded?
* **token-bucket burst size** -- a job whose demand dips below its rate
  accumulates allowance; on the next burst, all jobs dump their buckets
  into the MDS at once.  Peak MDS queueing grows with the burst window,
  which is why the harm experiment's admission cap needs margin.
* **feedback-loop interval** -- a slower loop tracks demand with stale
  allocations; under shifting demand, jobs are under-provisioned while
  hungry and over-provisioned while idle, so work delivered by a fixed
  horizon drops as the loop slows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.algorithms import ProportionalSharing
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import CollectAggregate
from repro.core.rpc import Ping
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.workloads.abci import generate_mdt_trace

__all__ = [
    "LagPoint",
    "sweep_control_lag",
    "BurstPoint",
    "sweep_burst_size",
    "sweep_loop_interval",
]

N_JOBS = 4


@dataclass(frozen=True, slots=True)
class LagPoint:
    """One control-lag sweep point."""

    latency: float
    #: Fraction of samples where the aggregate exceeded the 5%-padded cap.
    violation_fraction: float
    #: Operations that reached the FS above the cap allowance (excess ops).
    excess_ops: float


def sweep_control_lag(
    latencies: Sequence[float] = (0.0, 1.0, 2.0, 5.0, 10.0),
    seed: int = 0,
    duration: float = 600.0,
    cap: float = 150e3,
) -> list[LagPoint]:
    """Staggered job arrivals under delayed enforcement.

    Jobs enter every 60 s with *unthrottled* channels (the realistic
    arrival state); the control loop reins each one in, but its rate
    pushes (``EnforceJobRateBatch`` to each job's local) land ``latency``
    seconds late, so each arrival leaks unthrottled work proportional to
    the lag.  Collects stay synchronous.
    """
    points = []
    for latency in latencies:
        factory = (
            (
                lambda env, l=latency: FaultyFabric(
                    env, link=LinkProfile(latency=l), sync_messages=(CollectAggregate, Ping)
                )
            )
            if latency > 0
            else None
        )
        world = ReplayWorld(
            Setup.PADLL,
            sample_period=1.0,
            algorithm=ProportionalSharing(cap),
            fabric_factory=factory,
        )
        trace = generate_mdt_trace(seed=seed, duration=duration * 60.0)
        for i in range(N_JOBS):
            job_id = f"job{i + 1}"
            world.add_job(
                JobSpec(
                    job_id=job_id,
                    trace=trace,
                    setup=Setup.PADLL,
                    channel_mode="per-class",
                    start=i * 60.0,
                    initial_rate=None,  # unthrottled until first enforcement
                )
            )
            world.set_reservation(job_id, cap / N_JOBS)
        result = world.run(duration)
        agg = result.aggregate_job_rate()
        padded = cap * 1.05
        over = np.maximum(0.0, agg - padded)
        points.append(
            LagPoint(
                latency=latency,
                violation_fraction=float((agg > padded).mean()),
                # 1-s samples: rate == ops; shape fixed by the run
                # duration, so the reduction order never varies.
                excess_ops=float(over.sum()),  # padll: allow(FLT001)
            )
        )
    return points


@dataclass(frozen=True, slots=True)
class BurstPoint:
    """One burst-size sweep point."""

    burst_seconds: float
    #: Peak MDS queueing delay observed (seconds of work).
    peak_queue_delay: float
    #: Peak 1-second aggregate delivered rate relative to the cap.
    peak_over_cap: float


def sweep_burst_size(
    burst_seconds: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    seed: int = 0,
    duration: float = 600.0,
    cap: float = 400e3,
) -> list[BurstPoint]:
    """Sweep the token-bucket burst allowance (in seconds of rate).

    The per-job rate (cap/4 = 100 KOps/s) sits *above* the mean demand
    (~70 KOps/s), so buckets refill during lulls; on each burst onset all
    four in-phase jobs drain their accumulated allowance simultaneously.
    The MDS is sized to the cap, so the dump shows up as queueing delay.

    Burst windows below the fluid tick (1 s) are not resolvable -- a
    bucket smaller than one tick's allowance caps the achievable rate --
    so the sweep starts at 1 s.
    """
    from repro.experiments.harm import MEAN_OP_COST

    per_job = cap / N_JOBS
    points = []
    for burst_s in burst_seconds:
        world = ReplayWorld(
            Setup.PADLL,
            sample_period=1.0,
            mds_capacity=cap * MEAN_OP_COST * 1.05,
            mds_can_fail=False,
        )
        trace = generate_mdt_trace(seed=seed, duration=duration * 60.0)
        for i in range(N_JOBS):
            world.add_job(
                JobSpec(
                    job_id=f"job{i + 1}",
                    trace=trace,
                    setup=Setup.PADLL,
                    channel_mode="per-class",
                    initial_rate=per_job,
                )
            )
        world.install_policy(
            PolicyRule(
                name="static",
                scope=RuleScope(channel_id="metadata"),
                schedule=ConstantRate(per_job),
                burst=per_job * burst_s,
            )
        )
        result = world.run(duration)
        _, delays = result.series["mds.queue_delay"]
        agg = result.aggregate_job_rate()
        points.append(
            BurstPoint(
                burst_seconds=burst_s,
                peak_queue_delay=float(delays.max()),
                peak_over_cap=float(agg[2:].max() / cap) if agg.size > 2 else 0.0,
            )
        )
    return points


def sweep_loop_interval(
    intervals: Sequence[float] = (1.0, 5.0, 15.0, 60.0),
    seed: int = 0,
    duration: float = 900.0,
    cap: float = 250e3,
) -> Mapping[float, float]:
    """Sweep the feedback-loop period; returns interval -> delivered ops.

    Demand shifts on a scale of tens of seconds (regime changes in the
    trace); allocations computed once a minute chase it with stale data,
    stranding capacity while some jobs are hungry.  Work delivered by the
    fixed horizon therefore falls as the loop slows.
    """
    out = {}
    for interval in intervals:
        world = ReplayWorld(
            Setup.PADLL,
            sample_period=1.0,
            loop_interval=interval,
            algorithm=ProportionalSharing(cap),
        )
        trace = generate_mdt_trace(seed=seed, duration=duration * 60.0)
        for i in range(N_JOBS):
            job_id = f"job{i + 1}"
            world.add_job(
                JobSpec(
                    job_id=job_id,
                    trace=trace,
                    setup=Setup.PADLL,
                    channel_mode="per-class",
                    start=i * 45.0,  # out of phase: heterogeneous demand
                    initial_rate=cap / N_JOBS,
                )
            )
            world.set_reservation(job_id, cap / N_JOBS)
        result = world.run(duration)
        out[interval] = float(
            sum(job.delivered_ops for job in result.jobs.values())
        )
    return out
