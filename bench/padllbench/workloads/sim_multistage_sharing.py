"""``sim_multistage_sharing``: the same simulated layers, used the other way.

Eight jobs of four stages each (32 ``DataPlaneStage``s) under
``ProportionalSharing`` with per-job reservations, starting 30 simulated
seconds apart, at a capacity of 0.6 x the offered load.  ``n_stages > 1``
takes the *per-request* path -- ``DataPlaneStage.submit`` ->
``Classifier.classify`` -> ``Channel.enqueue`` for every slice of every
tick -- and runs the whole collect / allocate / enforce loop over 32
stages each simulated second.  A gain on the fused path of
``sim_fig4_perop`` should not show here, and the reverse.

Closed loop, one client; the fixed work of a repeat is one world of
450 simulated seconds (``ReplayWorld`` runs once, so each repeat builds a
new world outside the timed region).  A ``Ticker`` on the world's engine
marks every 25 simulated seconds and takes the calibration samples
(``calibrate.Segments``); it touches no simulated state.  What is reported
is the steady state: the 225 simulated seconds after the last job started.
"""

from __future__ import annotations

import gc
import hashlib
from typing import Dict, List, Sequence

from padllbench import isolated, stats
from padllbench.calibrate import Meter, Segments
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Check, Repeat, Traced, Workload, digest_mismatches
from padllbench.workloads.simtrace import instrument_sim, sim_layer_metrics

N_JOBS = 8
N_STAGES = 4
STAGGER_S = 30.0
CAPACITY_SHARE = 0.6
#: Simulated seconds between two calibration samples.
SEGMENT_SIM_S = 25.0
#: Reservations cycle over these shares of an equal split; they sum to
#: 0.875 x capacity, so they are honoured unscaled.
RESERVATION_STEPS = (0.5, 0.75, 1.0, 1.25)


def log_digest(log: Sequence[tuple]) -> str:
    digest = hashlib.sha256()
    for now, job, rate in log:
        digest.update(f"{float(now).hex()} {job} {float(rate).hex()}\n".encode())
    return digest.hexdigest()


def worst_overcommit(log: Sequence[tuple], capacity: float) -> tuple[int, int, str]:
    """(cycles checked, cycles whose enforced rates exceed capacity, first)."""
    per_cycle: Dict[float, float] = {}
    for now, _job, rate in log:
        per_cycle[now] = per_cycle.get(now, 0.0) + rate
    # One part in 10^9: the allocator clamps float error, not arithmetic.
    limit = capacity * (1.0 + 1e-9)
    over = [(now, total) for now, total in per_cycle.items() if total > limit]
    detail = f"t={over[0][0]}: {over[0][1]} > {capacity}" if over else ""
    return len(per_cycle), len(over), detail


class SimMultistageSharing(Workload):
    name = "sim_multistage_sharing"
    imports = (
        "repro.experiments.harness",
        "repro.core.algorithms",
    )
    work_per_s_is = "sim_s_per_s"
    unit_cost_us_is = "us per simulated second, all 32 stages active"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n_jobs = 3 if smoke else N_JOBS
        self.duration = 90.0 if smoke else 450.0
        self.stagger = 10.0 if smoke else STAGGER_S
        self.traces: List[object] = []
        self.capacity = 0.0

    def setup(self) -> None:
        from repro.workloads import abci
        from repro.workloads.replayer import TraceReplayer

        self.traces = [
            abci.generate_mdt_trace(seed=self.seed + j) for j in range(self.n_jobs)
        ]
        offered = 0.0
        for trace in self.traces:
            replayer = TraceReplayer(trace)
            offered += replayer.total_ops() / replayer.replay_duration
        self.capacity = CAPACITY_SHARE * offered

    def teardown(self) -> None:
        self.traces = []

    def _build_world(self):
        from repro.core.algorithms import ProportionalSharing
        from repro.experiments.harness import JobSpec, ReplayWorld, Setup

        world = ReplayWorld(
            Setup.PADLL, algorithm=ProportionalSharing(capacity=self.capacity)
        )
        equal = self.capacity / self.n_jobs
        for j, trace in enumerate(self.traces):
            job_id = f"job{j}"
            world.set_reservation(
                job_id, equal * RESERVATION_STEPS[j % len(RESERVATION_STEPS)]
            )
            world.add_job(
                JobSpec(
                    job_id=job_id,
                    trace=trace,
                    setup=Setup.PADLL,
                    start=self.stagger * j,
                    n_stages=N_STAGES,
                )
            )
        return world

    def warmup(self, meter: Meter) -> None:
        self._build_world().run(self.duration / 3.0)

    def repeat(self, meter: Meter) -> Repeat:
        from repro.simulation.ticker import Ticker

        world = self._build_world()
        segments = Segments(meter.calibrator)
        marked_at = [0.0]

        def mark(now: float) -> None:
            if now > marked_at[-1]:  # the first tick fires at t=0
                marked_at.append(now)
                segments.mark()

        Ticker(world.env, SEGMENT_SIM_S, mark, name="bench-calibrate")
        # Earlier repeats' worlds are cyclic garbage by now; collect it
        # here, not inside somebody's timed region.
        gc.collect()
        segments.start()
        result = world.run(self.duration)
        mark(self.duration)
        segments.finish()
        log = tuple(result.enforcement_log)
        # Steady state only: the pieces after the last job has started, all
        # 32 stages active.  They cost the same, so their median stands
        # for the repeat; the ramp before them is run but not reported.
        all_started = self.stagger * (self.n_jobs - 1)
        costs = [
            piece * 1e6 / (end - start)
            for piece, start, end in zip(segments.pieces, marked_at, marked_at[1:])
            if start >= all_started
        ]
        rates = [1e6 / cost for cost in costs]
        return Repeat(
            work=self.duration,
            raw_s=segments.raw_s,
            norm_s=segments.norm_s,
            unit_costs_us=costs,
            rates=rates,
            named={"sim_s_per_s": stats.median(rates)},
            outputs={"log": log, "digest": {"enforcement_log": log_digest(log)}},
        )

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        attempted = failed = 0
        detail = ""
        for repeat in repeats:
            cycles, over, first = worst_overcommit(repeat.outputs["log"], self.capacity)
            attempted += cycles
            failed += over
            detail = detail or first
        enforced = Check("sum of enforced rates <= capacity every cycle", attempted, failed, detail)
        if attempted == 0:
            enforced = Check(enforced.name, 1, 1, "the allocator never enforced a rate")
        same = Check(
            "enforcement log identical across repeats",
            *digest_mismatches([r.outputs["digest"] for r in repeats]),
        )
        return [enforced, same]

    def named_units(self) -> Dict[str, str]:
        return {"sim_s_per_s": "sim-s/s"}

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        instrument_sim(tracer)

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        return sim_layer_metrics(traced)

    def isolated(self, meter: Meter) -> Dict[str, float]:
        from repro.core.differentiation import Classifier, ClassifierRule
        from repro.core.requests import OperationClass, batch_request
        from repro.workloads.replayer import KIND_TO_OP

        # What the 32 stages classify: every (op, job, path) the replay
        # drivers submit, against the one per-class rule each stage holds.
        classifier = Classifier(
            rules=[
                ClassifierRule(
                    name="metadata-rule",
                    channel_id="metadata",
                    op_classes=frozenset(
                        {
                            OperationClass.METADATA,
                            OperationClass.DIRECTORY_MANAGEMENT,
                            OperationClass.EXTENDED_ATTRIBUTES,
                        }
                    ),
                )
            ],
            pfs_mounts=("/pfs",),
        )
        requests = [
            batch_request(KIND_TO_OP[kind], f"/pfs/job{j}/data-{kind}", f"job{j}", 10.0)
            for j in range(self.n_jobs)
            for kind in self.traces[j].kinds
        ]
        scale = 0.05 if self.smoke else 1.0
        return {
            "simulation.engine.events_per_s": isolated.engine_events_per_s(
                meter, 1000.0 * scale
            ),
            "core.differentiation.decisions_per_s": isolated.classifier_decisions_per_s(
                meter, classifier, requests, int(200_000 * scale)
            ),
            "core.token_bucket.ops_per_s": isolated.token_bucket_ops_per_s(
                meter, int(200_000 * scale)
            ),
        }


WORKLOAD = SimMultistageSharing
