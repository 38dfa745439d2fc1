"""Span boundaries and layer metrics shared by the two simulated workloads.

Both run ``ReplayWorld``; they differ in which of its paths they take, so
they share one set of wrappers and one way of reading the result.
"""

from __future__ import annotations

from typing import Any, Dict, List

from padllbench import stats
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Traced

__all__ = ["instrument_sim", "sim_layer_metrics"]


def _ticker_span_name(name: str) -> str | None:
    if name.startswith("replay-"):
        return "workloads.replayer.tick"
    if name == "drain":
        return "experiments.harness.drain_tick"
    if name == "collector":
        return "monitoring.collector.tick"
    if name == "control-loop":
        return None  # ControlPlane.tick is wrapped on the class
    if name.startswith("bench-"):
        return "bench.ticker"
    return f"simulation.ticker[{name}]"


def instrument_sim(tracer: SpanTracer) -> None:
    from repro.core import algorithms, channel, controller, differentiation, fabric, stage
    from repro.experiments import fig4, harness
    from repro.monitoring import collector
    from repro.pfs import cluster, mds
    from repro.simulation import engine, ticker
    from repro.workloads import abci, replayer

    tracer.wrap(engine.Environment, "run", "simulation.engine.run")
    tracer.wrap_function([abci, fig4], "generate_mdt_trace", "workloads.abci.generate")
    tracer.wrap(fig4, "run_fig4_metadata", "experiments.fig4.run")
    tracer.wrap(harness.ReplayWorld, "run", "experiments.harness.run")
    tracer.wrap(replayer.TraceReplayer, "__init__", "workloads.replayer.init")
    tracer.wrap(replayer.TraceReplayer, "schedule", "workloads.replayer.schedule")
    tracer.wrap(replayer.TraceReplayer, "demand", "workloads.replayer.demand")
    for attr, name in (
        ("submit", "core.stage.submit"),
        ("drain", "core.stage.drain"),
        ("drain_collect", "core.stage.drain"),
        ("collect", "core.stage.collect"),
        ("set_channel_rate", "core.stage.set_rate"),
    ):
        tracer.wrap(stage.DataPlaneStage, attr, name)
    tracer.wrap(differentiation.Classifier, "classify", "core.differentiation.classify")
    tracer.wrap(channel.Channel, "enqueue", "core.channel.enqueue")
    tracer.wrap(channel.Channel, "drain", "core.channel.drain", sum_result=True)
    tracer.wrap(cluster.LustreCluster, "service", "pfs.cluster.service", sum_result=True)
    tracer.wrap(mds.MetadataServer, "offer", "pfs.mds.offer")
    tracer.wrap(controller.ControlPlane, "tick", "core.controller.tick")
    tracer.wrap(
        fabric.FaultyFabric,
        "call",
        "core.fabric.call",
        key=lambda _self, _address, message: type(message).__name__,
    )
    tracer.wrap(algorithms.ProportionalSharing, "allocate", "core.algorithms.allocate")

    # Callables handed to public constructors: the periodic callbacks of
    # every Ticker, the replay driver's submit targets, collector probes.
    ticker_init = ticker.Ticker.__dict__["__init__"]

    def traced_ticker_init(self, env, period, fn, start=0.0, name="ticker", defer=0):
        span_name = _ticker_span_name(name)
        if span_name is not None:
            fn = tracer.spanning(fn, span_name)
        ticker_init(self, env, period, fn, start=start, name=name, defer=defer)

    tracer.patch(ticker.Ticker, "__init__", traced_ticker_init)

    driver_init = replayer.ReplayDriver.__dict__["__init__"]

    def traced_driver_init(self, env, trace_replayer, submit, *args: Any, **kwargs: Any):
        submit = tracer.spanning(submit, "experiments.harness.submit")
        if kwargs.get("batch_submit") is not None:
            kwargs["batch_submit"] = tracer.spanning(
                kwargs["batch_submit"], "experiments.harness.submit"
            )
        driver_init(self, env, trace_replayer, submit, *args, **kwargs)

    tracer.patch(replayer.ReplayDriver, "__init__", traced_driver_init)

    add_probe = collector.Collector.__dict__["add_probe"]

    def traced_add_probe(self, probe):
        add_probe(
            self,
            collector.Probe(
                probe.name, tracer.spanning(probe.sample, "monitoring.collector.sample")
            ),
        )

    tracer.patch(collector.Collector, "add_probe", traced_add_probe)


def sim_layer_metrics(traced: Traced) -> Dict[str, float]:
    wall = traced.wall_s or 1.0

    def layer_self(prefix: str) -> float:
        return traced.self_s(*traced.matching(prefix))

    engine_self = layer_self("simulation.engine") + layer_self("simulation.ticker")
    collect_calls = "core.fabric.call[CollectStats]"
    enforce_calls = "core.fabric.call[EnforceRate]"
    tick_ms = [d * 1e3 for d in traced.durations_s("core.controller.tick")]
    return {
        "simulation.engine.self_s": engine_self,
        "simulation.engine.share": engine_self / wall,
        "workloads.replayer.share": layer_self("workloads.replayer") / wall,
        "experiments.harness.self_s": layer_self("experiments.harness"),
        "experiments.harness.share": layer_self("experiments.harness") / wall,
        "experiments.fig4.self_s": layer_self("experiments.fig4"),
        "core.differentiation.classify_calls": traced.calls("core.differentiation.classify"),
        "core.differentiation.classify_s": traced.total_s("core.differentiation.classify"),
        "core.stage.submit_calls": traced.calls("core.stage.submit"),
        "core.stage.submit_s": traced.total_s("core.stage.submit"),
        "core.stage.drain_calls": traced.calls("core.stage.drain"),
        "core.stage.drain_s": traced.total_s("core.stage.drain"),
        "core.stage.collect_s": traced.total_s("core.stage.collect"),
        "core.stage.share": layer_self("core.stage") / wall,
        "core.channel.enqueue_calls": traced.calls("core.channel.enqueue"),
        "core.channel.drain_s": traced.total_s("core.channel.drain"),
        "core.channel.granted_ops": traced.sums.get("core.channel.drain", 0.0),
        "pfs.cluster.service_s": traced.total_s("pfs.cluster.service"),
        "pfs.mds.offer_calls": traced.calls("pfs.mds.offer"),
        "pfs.mds.served_ops": traced.sums.get("pfs.cluster.service", 0.0),
        "pfs.share": layer_self("pfs") / wall,
        "monitoring.collector.sample_s": traced.total_s("monitoring.collector.sample"),
        "monitoring.collector.samples": traced.calls("monitoring.collector.sample"),
        "core.controller.ticks": traced.calls("core.controller.tick"),
        "core.controller.tick_s": traced.total_s("core.controller.tick"),
        "core.controller.collect_s": traced.total_s(collect_calls),
        "core.controller.enforce_s": traced.total_s(enforce_calls),
        "core.controller.self_s": traced.self_s("core.controller.tick"),
        "core.controller.share": traced.self_s("core.controller.tick") / wall,
        "core.controller.tick_ms_p99": stats.tail(tick_ms),
        "core.controller.enforce_apply_ms_p50": enforce_apply_ms_p50(traced),
        "core.algorithms.allocate_calls": traced.calls("core.algorithms.allocate"),
        "core.algorithms.allocate_s": traced.total_s("core.algorithms.allocate"),
        "core.fabric.calls": traced.calls(*traced.matching("core.fabric.call")),
        "core.fabric.call_s": traced.total_s(*traced.matching("core.fabric.call")),
    }


def enforce_apply_ms_p50(traced: Traced, enforce: str = "core.fabric.call[EnforceRate]") -> float:
    """Median, over the retained ticks, of tick entry -> last rate applied."""
    tick_start: Dict[int, tuple[int, float]] = {}
    last_end: Dict[int, int] = {}
    for (span_id, name, start, end, parent, _trace), factor in zip(
        traced.spans, traced.factors
    ):
        if name == "core.controller.tick":
            tick_start[span_id] = (start, factor)
        elif name == enforce and parent:
            if end > last_end.get(parent, 0):
                last_end[parent] = end
    delays: List[float] = [
        (last_end[tick] - start) / 1e6 * factor
        for tick, (start, factor) in tick_start.items()
        if tick in last_end
    ]
    return stats.median(delays)
