#!/usr/bin/env python3
"""Tame a DL-training job's metadata storms (the paper's motivation).

A deep-learning training job re-indexes its million-file dataset at every
epoch -- a getattr storm an order of magnitude above its steady-state
rate -- while a well-behaved simulation job shares the same metadata
server.  Unthrottled, the storms degrade the MDS and the innocent job
with it; with PADLL capping the cluster and reserving the simulation
job's share, both jobs ride through every epoch boundary.

Run:  python examples/dl_training_protection.py
"""

from __future__ import annotations

from repro.analysis.plots import sparkline
from repro.core.algorithms import ProportionalSharing
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.experiments.harm import MEAN_OP_COST
from repro.workloads.abci import generate_mdt_trace
from repro.workloads.dltraining import (
    DLTrainingConfig,
    DLTrainingDriver,
    DLTrainingWorkload,
)

MDS_OPS = 120e3  # metadata server capacity, in mixed-op/s terms


def run(protected: bool):
    world = ReplayWorld(
        Setup.PADLL if protected else Setup.BASELINE,
        sample_period=5.0,
        mds_capacity=MDS_OPS * MEAN_OP_COST,
        mds_can_fail=True,
        algorithm=ProportionalSharing(MDS_OPS * 0.8) if protected else None,
    )
    # The innocent neighbour: a modest metadata workload.
    world.add_job(
        JobSpec(
            job_id="sim-job",
            trace=generate_mdt_trace(seed=3, duration=1200 * 60.0).scale(0.5),
            setup=Setup.PADLL if protected else Setup.BASELINE,
            channel_mode="per-class",
            initial_rate=MDS_OPS * 0.4 if protected else None,
        )
    )
    if protected:
        world.set_reservation("sim-job", MDS_OPS * 0.3)
    # The aggressor: DL training with per-epoch indexing storms.  The
    # training driver is not a trace replayer, so wire it manually into
    # the world's stage/client plumbing via a dedicated job.
    dl_config = DLTrainingConfig(
        n_files=2_000_000,
        epochs=4,
        samples_per_sec=30_000.0,
        index_rate=400_000.0,
    )
    workload = DLTrainingWorkload(dl_config)
    if protected:
        from repro.core.differentiation import ClassifierRule
        from repro.core.requests import OperationClass
        from repro.core.stage import DataPlaneStage, StageIdentity

        runtime_sink = world._jobs["sim-job"]  # noqa: SLF001 (example plumbing)
        stage = DataPlaneStage(
            StageIdentity("dl-stage", "dl-train"),
            sink=lambda req: world._client.submit(req),  # noqa: SLF001
            pfs_mounts=("/pfs",),
        )
        stage.create_channel("metadata", rate=MDS_OPS * 0.4)
        stage.add_classifier_rule(
            ClassifierRule(
                "md",
                "metadata",
                op_classes=frozenset({OperationClass.METADATA}),
            )
        )
        world.env.call_at(
            0.0, lambda: world.controller.register(stage, now=world.env.now)
        )
        world.env.call_at(
            0.0, lambda: world.controller.set_reservation("dl-train", MDS_OPS * 0.5)
        )
        from repro.simulation.ticker import Ticker

        Ticker(world.env, 1.0, lambda now: stage.drain(now), defer=1)
        submit = lambda req: stage.submit(req, world.env.now)  # noqa: E731
    else:
        submit = lambda req: world._client.submit(req)  # noqa: E731,SLF001

    def start_driver() -> None:
        DLTrainingDriver(world.env, workload, submit, job_id="dl-train")

    world.env.call_at(0.0, start_driver)
    result = world.run(1000.0)
    mds = world.cluster.mds_servers[0]
    return result, mds, world._client  # noqa: SLF001


def main() -> None:
    for protected in (False, True):
        result, mds, client = run(protected)
        label = "PADLL-protected" if protected else "unprotected"
        _, delays = result.series["mds.queue_delay"]
        served = sum(mds.served.values())
        print(f"--- {label} ---")
        print(f"MDS failed          : {mds.failed}")
        print(f"MDS queue delay     : {sparkline(delays, width=60)}")
        print(f"ops actually served : {served / 1e6:.1f}M")
        print(f"ops lost (MDS down) : {client.failed_ops / 1e6:.1f}M")
        print()


if __name__ == "__main__":
    main()
