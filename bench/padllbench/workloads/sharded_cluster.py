"""``sharded_cluster``: the scale path.

``ShardedSimulation`` at 10^4 stages / 10^6 simulated clients (2 500 jobs
x 4 stages over 32 racks, split placement, capacity 0.6 x offered load)
on a two-process ``ShardPool`` over the shm fabric.  One control cycle is
one epoch: every stage's vectorised fluid tick in the shard workers, the
epoch barrier, the hierarchical plane's demand merge, the allocator, and
the enforcement scatter.  It is numpy all the way down, so none of the
other workloads predicts it; ROADMAP items 2c and 3 rewrite exactly this.

Closed loop; the fixed work of a repeat is one simulation of 300 cycles
(a ``ShardedSimulation`` runs once, so each repeat starts a new pool
outside the timed region -- that start is ``setup_s``).  The coordinator's
public ``epoch_hook`` marks every epoch and takes the calibration samples
(``calibrate.Segments``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from padllbench import stats
from padllbench.calibrate import Meter, Segments
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Check, Repeat, Traced, Workload

#: Epochs between two calibration samples.
SEGMENT = 25


class ShardedCluster(Workload):
    name = "sharded_cluster"
    imports = (
        "repro.simulation.sharded",
        "repro.core.algorithms",
    )
    pin = True
    work_per_s_is = "cluster_cycles_per_s"
    unit_cost_us_is = "us per control cycle, median epoch"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n_jobs = 100 if smoke else 2500
        self.n_racks = 8 if smoke else 32
        self.cycles = 2 * SEGMENT if smoke else 12 * SEGMENT
        self.sim = None
        #: What the current simulation's ``epoch_hook`` marks.
        self.segments: Segments | None = None

    def _simulation(self, n_shards: int, epoch_hook=None):
        from repro.core.algorithms import ProportionalSharing
        from repro.simulation.sharded import FluidConfig, ShardedConfig, ShardedSimulation

        fluid = FluidConfig(seed=self.seed, clients_per_stage=100)
        config = ShardedConfig(
            n_racks=self.n_racks,
            n_shards=n_shards,
            n_jobs=self.n_jobs,
            stages_per_job=4,
            placement="split",
            loop_interval=1.0,
            fluid=fluid,
        )
        capacity = 0.6 * fluid.clients_per_stage * fluid.ops_per_client * config.n_stages
        return ShardedSimulation(
            config,
            algorithm=ProportionalSharing(capacity=capacity),
            epoch_hook=epoch_hook,
        )

    def setup(self) -> None:
        # The hook outlives set-up; what it marks is only known per repeat.
        self.sim = self._simulation(2, epoch_hook=lambda _plane, _now: self.segments.mark())

    def teardown(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None

    def _run(self, meter: Meter, cycles: int) -> Repeat:
        if self.sim is None:
            self.setup()
        segments = self.segments = Segments(meter.calibrator, every=SEGMENT)
        segments.start()
        self.sim.run(float(cycles))
        segments.finish()
        self.sim.close()
        self.sim = None
        done = len(segments.pieces)
        return Repeat(
            work=float(done),
            raw_s=segments.raw_s,
            norm_s=segments.norm_s,
            unit_costs_us=[piece * 1e6 for piece in segments.pieces],
            rates=segments.rates,
            named={"cluster_cycles_per_s": stats.median(segments.rates)},
        )

    def warmup(self, meter: Meter) -> None:
        self._run(meter, SEGMENT)

    def repeat(self, meter: Meter) -> Repeat:
        return self._run(meter, self.cycles)

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        digests = []
        for n_shards in (1, 2):
            with self._simulation(n_shards) as sim:
                digests.append(sim.run(20.0).finish().digest())
        return [check_shard_digests(digests[0], digests[1])]

    def named_units(self) -> Dict[str, str]:
        return {"cluster_cycles_per_s": "cycles/s"}

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        from repro.core import algorithms, controller
        from repro.simulation.sharded import coordinator, pool

        tracer.wrap(coordinator.ShardedSimulation, "run", "simulation.sharded.run")
        tracer.wrap(pool.ShardPool, "run_epoch_arrays", "simulation.sharded.pool.epoch")
        # HierarchicalControlPlane inherits tick(); in this workload every
        # control plane is the hierarchical one.
        tracer.wrap(controller.ControlPlane, "tick", "core.hierarchy.tick")
        tracer.wrap(
            algorithms.ProportionalSharing, "allocate_arrays", "core.algorithms.allocate"
        )

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        wall = traced.wall_s or 1.0
        epoch_ms = [us / 1e3 for r in traced.reference for us in r.unit_costs_us]
        return {
            "core.hierarchy.tick_s": traced.total_s("core.hierarchy.tick"),
            "core.hierarchy.share": traced.self_s("core.hierarchy.tick") / wall,
            "core.algorithms.allocate_calls": traced.calls("core.algorithms.allocate"),
            "core.algorithms.allocate_s": traced.total_s("core.algorithms.allocate"),
            "simulation.sharded.pool_epoch_s": traced.total_s("simulation.sharded.pool.epoch"),
            "simulation.sharded.scatter_gather_s": traced.self_s("simulation.sharded.run"),
            "simulation.sharded.epoch_ms_p50": stats.median(epoch_ms),
            "simulation.sharded.epoch_ms_p99": stats.tail(epoch_ms),
        }

    def isolated(self, meter: Meter) -> Dict[str, float]:
        cycles = self.cycles // 2
        with self._simulation(1) as sim:
            in_process = meter.run(sim.run, float(cycles))
        start = meter.run(self._simulation, 2)
        start.value.close()
        return {
            "simulation.sharded.inproc_cycles_per_s": cycles / in_process.norm_s,
            "simulation.sharded.pool_start_s": start.norm_s,
        }


def check_shard_digests(one_shard: str, two_shards: str) -> Check:
    ok = bool(one_shard) and one_shard == two_shards
    return Check(
        "20-cycle digest equal at 1 and 2 shards",
        1,
        0 if ok else 1,
        "" if ok else f"1 shard {one_shard} != 2 shards {two_shards}",
    )


WORKLOAD = ShardedCluster
