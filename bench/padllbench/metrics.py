"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names (``bench/tests`` checks the two
agree).  ``bench/README.md`` says what each one measures and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "unit_of"]

#: name -> why it is in the benchmark (one line; copied into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sim_fig4_perop": (
        "Figure-4 regeneration, single-stage jobs: the fused batch paths in "
        "experiments.harness; replayer, MDS, engine and collector do the work, "
        "the controller almost none."
    ),
    "sim_multistage_sharing": (
        "8 jobs x 4 stages under ProportionalSharing: the per-request "
        "submit/classify/channel path and the full collect/allocate/enforce "
        "loop at 32 stages, which the fused path bypasses."
    ),
    "live_interpose": (
        "Real metadata calls through the Interposer with an unlimited channel, "
        "on and off the PFS mount, against no interposer: the paper's overhead "
        "claim; only interpose.* works here."
    ),
    "live_control_wire": (
        "ControlPlane ticks over a SocketTransport to 32 LiveStages on one "
        "connection: 64 framed RPCs per tick, so wire codec and thread "
        "hand-off dominate, not the allocator."
    ),
    "sharded_cluster": (
        "ShardedSimulation at 10^4 stages / 10^6 clients on a 2-process "
        "ShardPool over shm: numpy-vectorised scale path that no other "
        "workload predicts."
    ),
}

#: (name, unit, better, bound).  Every workload reports every one of these.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.20),
    ("unit_cost_us", "us", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better).  The traced run reports every one of these on
#: every workload; 0 means the layer is not on that workload's path.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("simulation.engine.self_s", "s", "lower"),
    ("simulation.engine.share", "ratio", "lower"),
    ("simulation.engine.events_per_s", "1/s", "higher"),
    ("workloads.abci.trace_gen_s", "s", "lower"),
    ("workloads.replayer.schedule_s", "s", "lower"),
    ("workloads.replayer.share", "ratio", "lower"),
    ("experiments.harness.self_s", "s", "lower"),
    ("experiments.harness.share", "ratio", "lower"),
    ("experiments.fig4.self_s", "s", "lower"),
    ("core.differentiation.classify_calls", "count", "lower"),
    ("core.differentiation.classify_s", "s", "lower"),
    ("core.differentiation.decisions_per_s", "1/s", "higher"),
    ("core.stage.submit_calls", "count", "lower"),
    ("core.stage.submit_s", "s", "lower"),
    ("core.stage.drain_calls", "count", "lower"),
    ("core.stage.drain_s", "s", "lower"),
    ("core.stage.collect_s", "s", "lower"),
    ("core.stage.share", "ratio", "lower"),
    ("core.channel.enqueue_calls", "count", "lower"),
    ("core.channel.drain_s", "s", "lower"),
    ("core.channel.granted_ops", "count", "higher"),
    ("core.token_bucket.ops_per_s", "1/s", "higher"),
    ("pfs.cluster.service_s", "s", "lower"),
    ("pfs.mds.offer_calls", "count", "lower"),
    ("pfs.mds.served_ops", "count", "higher"),
    ("pfs.share", "ratio", "lower"),
    ("monitoring.collector.sample_s", "s", "lower"),
    ("monitoring.collector.samples", "count", "lower"),
    ("core.controller.ticks", "count", "higher"),
    ("core.controller.tick_s", "s", "lower"),
    ("core.controller.collect_s", "s", "lower"),
    ("core.controller.enforce_s", "s", "lower"),
    ("core.controller.self_s", "s", "lower"),
    ("core.controller.share", "ratio", "lower"),
    ("core.controller.tick_ms_p99", "ms", "lower"),
    ("core.controller.enforce_apply_ms_p50", "ms", "lower"),
    ("core.algorithms.allocate_calls", "count", "lower"),
    ("core.algorithms.allocate_s", "s", "lower"),
    ("core.fabric.calls", "count", "lower"),
    ("core.fabric.call_s", "s", "lower"),
    ("core.fabric.drops", "count", "lower"),
    ("core.wire.encode_us", "us", "lower"),
    ("core.wire.decode_us", "us", "lower"),
    ("core.wire.bytes_per_tick", "B", "lower"),
    ("core.wire.frames_per_tick", "count", "lower"),
    ("net.socket.round_trips", "count", "lower"),
    ("net.socket.round_trip_us_p50", "us", "lower"),
    ("net.socket.round_trip_us_p99", "us", "lower"),
    ("net.socket.handoff_us", "us", "lower"),
    ("net.socket.errors", "count", "lower"),
    ("interpose.live_stage.throttle_us", "us", "lower"),
    ("interpose.live_stage.bypass_us", "us", "lower"),
    ("interpose.live_stage.collect_us", "us", "lower"),
    ("interpose.live_stage.set_rate_us", "us", "lower"),
    ("interpose.live_bucket.acquire_us", "us", "lower"),
    ("interpose.monkeypatch.wrapper_us", "us", "lower"),
    ("interpose.monkeypatch.intercepted_calls", "count", "higher"),
    ("interpose.bypass_overhead_us_per_op", "us", "lower"),
    ("interpose.batch_us_per_op_p99", "us", "lower"),
    ("core.hierarchy.tick_s", "s", "lower"),
    ("core.hierarchy.share", "ratio", "lower"),
    ("simulation.sharded.epoch_ms_p50", "ms", "lower"),
    ("simulation.sharded.epoch_ms_p99", "ms", "lower"),
    ("simulation.sharded.pool_epoch_s", "s", "lower"),
    ("simulation.sharded.scatter_gather_s", "s", "lower"),
    ("simulation.sharded.inproc_cycles_per_s", "1/s", "higher"),
    ("simulation.sharded.pool_start_s", "s", "lower"),
    ("telemetry.traced_sim_s_per_s", "1/s", "higher"),
    ("telemetry.tracing_cost_ratio", "ratio", "lower"),
    ("telemetry.spans_emitted", "count", "lower"),
    ("service.snapshot_ms", "ms", "lower"),
    ("service.metrics_text_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.layer_sum_ratio", "ratio", "higher"),
    ("bench.generator_cpu_share", "ratio", "lower"),
]

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}  # type: ignore[operator]


def unit_of(name: str) -> str:
    return _UNITS[name]
