"""``sim_fig4_perop``: the figure-regeneration path every user runs.

``run_fig4_metadata`` for ``open``, ``close``, ``getattr`` and the whole
``metadata`` class, on four consecutive seeds, at the figure's own
durations.  Each call replays one fixed-seed trace under the three setups
(baseline / passthrough / padll).  Single-stage jobs take the *fused*
batch paths in ``experiments.harness``: one classify per (tick, kind), no
``DataPlaneStage.submit``, almost no controller work.

Closed loop, one client: the next job starts when the previous returns;
the fixed work of a repeat is 16 jobs x 3 setups x 2 100 simulated seconds.
Each repeat also runs the four targets of the first seed once more with
the program's own 1 %-sampled tracing on, which forces the legacy
per-request pipeline (ROADMAP item 2a).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from padllbench import isolated
from padllbench.calibrate import Meter
from padllbench.stats import median
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Check, Repeat, Traced, Workload, digest_mismatches
from padllbench.workloads.simtrace import instrument_sim, sim_layer_metrics

TARGETS = ("open", "close", "getattr", "metadata")
N_SETUPS = 3


def result_digest(result) -> str:
    """SHA-256 over a ``Fig4Result``'s limits and every series, bit for bit."""
    import numpy as np

    digest = hashlib.sha256()
    digest.update(np.asarray(result.limits, dtype=np.float64).tobytes())
    for setup in sorted(result.series):
        times, rates = result.series[setup]
        digest.update(setup.encode())
        digest.update(np.ascontiguousarray(times, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(rates, dtype=np.float64).tobytes())
    return digest.hexdigest()


class SimFig4PerOp(Workload):
    name = "sim_fig4_perop"
    imports = (
        "numpy",
        "repro.experiments.fig4",
        "repro.telemetry",
    )
    work_per_s_is = "sim_s_per_s"
    unit_cost_us_is = "us per simulated second, median job"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.targets = TARGETS[:2] if smoke else TARGETS
        if smoke:
            self.seeds = [seed]
            self.timing = dict(duration=60.0, step_period=20.0, drain_tail=20.0)
        else:
            self.seeds = [seed + k for k in range(4)]
            self.timing = dict(duration=1800.0, step_period=360.0, drain_tail=300.0)
        self.sim_s_per_job = N_SETUPS * (self.timing["duration"] + self.timing["drain_tail"])
        self.jobs: List[Tuple[str, int]] = [
            (target, s) for s in self.seeds for target in self.targets
        ]
        self.traces: Dict[int, object] = {}

    def setup(self) -> None:
        # The figure generates its trace from the seed itself; generating
        # them here too is what a user pays before the first panel, and
        # gives the isolated replayer drive its input.
        from repro.workloads import abci

        self.traces = {s: abci.generate_mdt_trace(seed=s) for s in self.seeds}

    def teardown(self) -> None:
        self.traces = {}

    def _run_job(self, target: str, seed: int, telemetry_factory=None) -> str:
        from repro.experiments import fig4

        result = fig4.run_fig4_metadata(
            target, seed=seed, telemetry_factory=telemetry_factory, **self.timing
        )
        return result_digest(result)

    def warmup(self, meter: Meter) -> None:
        for target in self.targets:
            self._run_job(target, self.seeds[0])

    def traced_repeat(self, meter: Meter) -> Repeat:
        """The sixteen jobs alone: the spans should show the path users run,
        not the legacy pipeline the program's own tracing switches to."""
        digests: Dict[str, str] = {}
        raw = norm = 0.0
        costs: List[float] = []
        for target, seed in self.jobs:
            timed = meter.run(self._run_job, target, seed)
            digests[f"{target}/{seed}"] = timed.value
            raw += timed.raw_s
            norm += timed.norm_s
            costs.append(timed.norm_s * 1e6 / self.sim_s_per_job)
        work = len(self.jobs) * self.sim_s_per_job
        return Repeat(
            work=work,
            raw_s=raw,
            norm_s=norm,
            unit_costs_us=costs,
            named={"sim_s_per_s": work / norm},
            outputs=digests,
        )

    def repeat(self, meter: Meter) -> Repeat:
        from repro.telemetry import Telemetry, TelemetryConfig

        repeat = self.traced_repeat(meter)
        digests = repeat.outputs
        spines: List[Telemetry] = []

        def factory(_setup: str) -> Telemetry:
            spines.append(
                Telemetry(TelemetryConfig(seed=self.seeds[0], sample_rate=0.01, trace=True))
            )
            return spines[-1]

        traced_norm = 0.0
        for target in self.targets:
            timed = meter.run(self._run_job, target, self.seeds[0], factory)
            digests[f"traced/{target}/{self.seeds[0]}"] = timed.value
            traced_norm += timed.norm_s
        repeat.named["traced_sim_s_per_s"] = len(self.targets) * self.sim_s_per_job / traced_norm
        repeat.named["spans_emitted"] = float(sum(len(t.tracer.spans) for t in spines))
        return repeat

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        return check_digests([r.outputs for r in repeats], self.seeds[0], self.targets)

    def named_units(self) -> Dict[str, str]:
        return {"sim_s_per_s": "sim-s/s", "traced_sim_s_per_s": "sim-s/s"}

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        instrument_sim(tracer)

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        out = sim_layer_metrics(traced)
        plain = median([r.named["sim_s_per_s"] for r in traced.reference])
        with_tracing = median([r.named["traced_sim_s_per_s"] for r in traced.reference])
        out["telemetry.traced_sim_s_per_s"] = with_tracing
        out["telemetry.tracing_cost_ratio"] = plain / with_tracing
        out["telemetry.spans_emitted"] = median(
            [r.named["spans_emitted"] for r in traced.reference]
        )
        return out

    def isolated(self, meter: Meter) -> Dict[str, float]:
        from repro.core.differentiation import Classifier, ClassifierRule
        from repro.core.requests import MDS_KIND_BY_OP, batch_request
        from repro.workloads import abci
        from repro.workloads.replayer import KIND_TO_OP, TraceReplayer

        seed = self.seeds[0]
        trace_gen = meter.run(abci.generate_mdt_trace, seed=seed)
        trace = trace_gen.value

        def build_and_schedule() -> None:
            replayer = TraceReplayer(trace, acceleration=60.0, rate_scale=0.5)
            steps = int(self.timing["duration"])
            replayer.schedule([float(t) for t in range(steps)], 1.0)

        schedule = meter.run(build_and_schedule)
        # The request keys the per-op panels classify: one (op, path) per
        # kind, against one rule per kind, as _build_channels installs them.
        kinds = tuple(trace.kinds)
        classifier = Classifier(
            rules=[
                ClassifierRule(
                    name=f"{kind}-rule",
                    channel_id=kind,
                    op_types=frozenset({KIND_TO_OP[kind]}),
                )
                for kind in kinds
            ],
            pfs_mounts=("/pfs",),
        )
        requests = [
            batch_request(
                KIND_TO_OP[kind], f"/pfs/job1/data-{kind}", "job1", 10.0,
                kind_hint=MDS_KIND_BY_OP[KIND_TO_OP[kind]],
            )
            for kind in kinds
        ]
        scale = 0.05 if self.smoke else 1.0
        return {
            "workloads.abci.trace_gen_s": trace_gen.norm_s,
            "workloads.replayer.schedule_s": schedule.norm_s,
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


def check_digests(
    digests: Sequence[Dict[str, str]], traced_seed: int, targets: Sequence[str] = TARGETS
) -> List[Check]:
    """Series digests identical across repeats, and with the program's
    tracing on (telemetry must never touch the simulated arithmetic)."""
    attempted, failed, detail = digest_mismatches(digests)
    across = Check("fig4 series digests identical across repeats", attempted, failed, detail)
    attempted = failed = 0
    detail = ""
    for index, current in enumerate(digests):
        for target in targets:
            attempted += 1
            plain = current.get(f"{target}/{traced_seed}")
            traced = current.get(f"traced/{target}/{traced_seed}")
            if plain is None or plain != traced:
                failed += 1
                detail = detail or f"repeat {index} {target}: traced {traced} != {plain}"
    return [across, Check("fig4 series digests identical with tracing on", attempted, failed, detail)]


WORKLOAD = SimFig4PerOp
