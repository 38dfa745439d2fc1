"""Microbenchmarks of the hot paths.

These are genuine pytest-benchmark timings (many rounds), profiling the
components the experiments stress: token-bucket arithmetic, stage
submit/drain, classification, MDS fluid service, and the allocation
algorithms.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import JobDemand, ProportionalSharing
from repro.core.differentiation import Classifier, ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.token_bucket import TokenBucket
from repro.pfs.mds import MDSConfig, MetadataServer


def test_token_bucket_consume(benchmark):
    bucket = TokenBucket(rate=1e6)
    state = {"now": 0.0}

    def op():
        state["now"] += 1e-5
        bucket.consume_available(8.0, state["now"])

    benchmark(op)


def test_classifier_classify(benchmark):
    classifier = Classifier(
        [
            ClassifierRule(
                name="opens",
                channel_id="c1",
                op_types=frozenset({OperationType.OPEN}),
                priority=5,
            ),
            ClassifierRule(
                name="md",
                channel_id="c2",
                op_classes=frozenset({OperationClass.METADATA}),
            ),
        ],
        pfs_mounts=("/pfs",),
    )
    request = Request(OperationType.CLOSE, path="/pfs/a/b/c")
    benchmark(classifier.classify, request)


def test_stage_submit_drain_cycle(benchmark):
    stage = DataPlaneStage(StageIdentity("s0", "j0"), lambda req: None)
    stage.create_channel("metadata", rate=1e6)
    stage.add_classifier_rule(
        ClassifierRule(
            name="md",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    state = {"now": 0.0}

    def cycle():
        state["now"] += 1.0
        for _ in range(32):
            stage.submit(
                Request(OperationType.OPEN, path="/f", count=100.0), state["now"]
            )
        stage.drain(state["now"])

    benchmark(cycle)


def test_mds_fluid_service(benchmark):
    mds = MetadataServer(config=MDSConfig(capacity=1e6, can_fail=False))
    state = {"now": 0.0}

    def tick():
        state["now"] += 1.0
        for kind in ("open", "close", "getattr", "rename"):
            mds.offer(kind, 1000.0, state["now"])
        mds.service(state["now"], 1.0)

    benchmark(tick)


def test_proportional_sharing_allocate(benchmark):
    algo = ProportionalSharing(300e3)
    demands = [
        JobDemand(f"job{i}", demand=float(20e3 + i * 7e3), reservation=float(10e3 + i * 5e3))
        for i in range(16)
    ]
    benchmark(algo.allocate, demands)


def test_trace_generation_one_day(benchmark):
    from repro.workloads.abci import generate_aggregate_trace

    counter = {"seed": 0}

    def gen():
        counter["seed"] += 1
        return generate_aggregate_trace(
            seed=counter["seed"], duration=24 * 3600.0
        )

    benchmark(gen)


def test_replayer_demand_lookup(benchmark):
    from repro.workloads.abci import generate_mdt_trace
    from repro.workloads.replayer import TraceReplayer

    replayer = TraceReplayer(generate_mdt_trace(seed=0, duration=600 * 60.0))
    state = {"t": 0.0}

    def lookup():
        state["t"] = (state["t"] + 1.0) % replayer.replay_duration
        replayer.demand(state["t"], 1.0)

    benchmark(lookup)

