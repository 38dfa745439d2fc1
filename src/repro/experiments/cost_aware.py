"""Cost-aware sharing: Observation #2 as a control algorithm.

Section II's Observation #2: "operations with different costs should have
different QoS levels" -- a rename costs the MDS ~8x a getattr.  An
allocator that shares *operations per second* equally lets rename-heavy
jobs consume most of the MDS even while every job's op rate looks fair.

This experiment runs two getattr-only jobs against two rename-only jobs
under the same MDS and compares:

* **ops-fair** -- proportional sharing over ops/s (the Fig. 5 algorithm),
  with the cluster cap chosen from the *average* operation mix (the best
  an op-count-only administrator can do);
* **cost-aware** -- DRF with one resource (MDS cost units) and per-job
  usage vectors equal to each job's per-op cost, so every job receives an
  equal share of the *metadata server*, not of an op counter.

Expected shapes: the ops-fair run overloads the MDS (rename jobs consume
~8x their apparent share) and queueing explodes; the cost-aware run keeps
the MDS healthy and equalises per-job cost-unit consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.algorithms import (
    AllocationAlgorithm,
    DominantResourceFairness,
    ProportionalSharing,
)
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.pfs.costs import op_cost
from repro.workloads.abci import generate_mdt_trace

__all__ = ["CostAwareResult", "run_cost_aware", "main"]

#: Two light jobs (getattr-only) vs two heavy jobs (rename-only).
JOB_KINDS: Mapping[str, str] = {
    "light1": "getattr",
    "light2": "getattr",
    "heavy1": "rename",
    "heavy2": "rename",
}

#: MDS capacity in cost units per second.
MDS_UNITS = 400e3


@dataclass(frozen=True, slots=True)
class CostAwareResult:
    """Outcome of one allocator under the mixed-cost workload."""

    allocator: str
    mds_peak_queue_delay: float
    mds_degraded: bool
    #: job id -> delivered operations.
    delivered_ops: Mapping[str, float]
    #: job id -> cost units consumed at the MDS.
    consumed_units: Mapping[str, float]
    total_served_units: float

    def unit_share_spread(self) -> float:
        """max/min of per-job cost-unit consumption (1 = perfectly even)."""
        values = [v for v in self.consumed_units.values() if v > 0]
        if not values:
            return 1.0
        return max(values) / min(values)


def _make_algorithm(kind: str) -> AllocationAlgorithm:
    if kind == "ops-fair":
        # The administrator knows only op counts, so the ops cap is sized
        # from the *cluster-average* operation mix (~2.6 units/op, the
        # LustrePerfMon mix) -- they cannot see that this particular job
        # set is rename-heavy and really averages 4.5 units/op.
        from repro.experiments.harm import MEAN_OP_COST

        return ProportionalSharing(MDS_UNITS / MEAN_OP_COST)
    if kind == "cost-aware":
        usages = {
            job_id: {"mds_units": op_cost(op_kind)}
            for job_id, op_kind in JOB_KINDS.items()
        }
        return DominantResourceFairness(
            capacities={"mds_units": MDS_UNITS * 0.95}, usages=usages
        )
    raise ValueError(f"unknown allocator {kind!r}")


def run_cost_aware(
    allocator: str,
    seed: int = 0,
    duration: float = 900.0,
) -> CostAwareResult:
    """Run the mixed-cost scenario under one allocator."""
    algorithm = _make_algorithm(allocator)
    world = ReplayWorld(
        Setup.PADLL,
        sample_period=5.0,
        mds_capacity=MDS_UNITS,
        mds_can_fail=False,
        algorithm=algorithm,
    )
    trace = generate_mdt_trace(seed=seed, duration=duration * 60.0)
    # Rescale so each single-kind job offers the same op rate: both job
    # classes *look* identical to an op counter.
    for job_id, op_kind in JOB_KINDS.items():
        world.add_job(
            JobSpec(
                job_id=job_id,
                trace=trace.select([k for k in trace.kinds]).scale(
                    1.0 / max(1e-9, trace.shares()[op_kind])
                ),
                setup=Setup.PADLL,
                kinds=(op_kind,),
                channel_mode="per-class",
                rate_scale=0.25,
                initial_rate=20e3,
            )
        )
        world.set_reservation(job_id, 25e3)
    result = world.run(duration)
    mds = world.cluster.mds_servers[0]
    delivered: Dict[str, float] = {}
    consumed: Dict[str, float] = {}
    for job_id, op_kind in JOB_KINDS.items():
        ops = result.jobs[job_id].delivered_ops
        delivered[job_id] = ops
        consumed[job_id] = ops * op_cost(op_kind)
    _, delays = result.series["mds.queue_delay"]
    return CostAwareResult(
        allocator=allocator,
        mds_peak_queue_delay=float(delays.max()),
        mds_degraded=bool((delays > mds.config.degrade_after).any()),
        delivered_ops=delivered,
        consumed_units=consumed,
        total_served_units=sum(
            op_cost(k) * c for k, c in mds.served.items()
        ),
    )


def main(seed: int = 0) -> Tuple[CostAwareResult, CostAwareResult]:
    ops_fair = run_cost_aware("ops-fair", seed=seed)
    cost_aware = run_cost_aware("cost-aware", seed=seed)
    for result in (ops_fair, cost_aware):
        print(f"--- {result.allocator} ---")
        print(f"  MDS peak queue delay : {result.mds_peak_queue_delay:.2f} s")
        print(f"  MDS ever degraded    : {result.mds_degraded}")
        for job_id in JOB_KINDS:
            print(
                f"  {job_id:<8} delivered {result.delivered_ops[job_id] / 1e6:6.1f}M ops"
                f" = {result.consumed_units[job_id] / 1e6:7.1f}M cost units"
            )
        print(f"  unit-consumption spread (max/min): {result.unit_share_spread():.2f}")
    return ops_fair, cost_aware


if __name__ == "__main__":
    main()
