"""Command-line interface: ``padll-repro``.

Subcommands::

    padll-repro trace generate --kind aggregate --seed 0 --out trace.csv
    padll-repro trace stats trace.csv
    padll-repro trace run --target open --sample-rate 0.05 [--out DIR]
    padll-repro experiment fig1|fig2|fig4|fig4-sharded|fig5|overhead|harm|...
    padll-repro ablation lag|burst|loop
    padll-repro sweep fig4|fig5|ablations|harm|overhead|sharded|all [--jobs N]
    padll-repro sharded [--shards N] [--digest-only]
    padll-repro lint [paths ...] [--format text|json|sarif] [--verbose]
    padll-repro serve [--config SERVICE.json] [--duration N]
    padll-repro stage-host --connect HOST:PORT --host-id ID --stages IDS [--seed N]
    padll-repro policy check CONFIG.json

Each experiment subcommand regenerates the corresponding paper artefact
and prints it as text (the same rendering the benchmarks use).  ``serve``
takes its whole world from one JSON document (docs/SERVICE.md); only the
admin secret may come from the environment instead (``PADLL_ADMIN_TOKEN``,
when the document sets no ``admin_token``).  A ``stage-host`` is spawned
by ``serve`` and fetches everything but its identity from the controller.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.errors import ConfigError, ReproError
from repro.runner.cells import ARTEFACTS, GRIDS, grid, resolve

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padll-repro",
        description="PADLL reproduction: metadata QoS experiments and tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # -- trace ----------------------------------------------------------------
    trace = sub.add_parser("trace", help="generate or inspect metadata traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    gen = trace_sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument(
        "--kind",
        choices=("aggregate", "mdt"),
        default="aggregate",
        help="aggregate PFS_A load (Figs. 1-2) or the hot-MDT replay trace",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--minutes",
        type=float,
        default=None,
        help="trace length in original-log minutes (default: paper scale)",
    )
    gen.add_argument(
        "--out", required=True, help="output path (.csv or .jsonl)"
    )

    stats = trace_sub.add_parser("stats", help="summarise a trace file")
    stats.add_argument("path", help="trace file (.csv or .jsonl)")

    trun = trace_sub.add_parser(
        "run",
        help="run an experiment with per-request tracing and render the "
        "span waterfall + controller-decision timeline",
    )
    trun.add_argument(
        "--target",
        choices=("open", "close", "getattr", "rename", "metadata"),
        default="open",
        help="fig4 metadata panel to trace",
    )
    trun.add_argument("--seed", type=int, default=0)
    trun.add_argument(
        "--sample-rate",
        type=float,
        default=0.05,
        help="deterministic head-sampling probability in [0, 1]",
    )
    trun.add_argument("--duration", type=float, default=240.0)
    trun.add_argument("--step-period", type=float, default=120.0)
    trun.add_argument("--drain-tail", type=float, default=60.0)
    trun.add_argument(
        "--traces",
        type=int,
        default=4,
        help="sampled traces rendered in the waterfall",
    )
    trun.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write spans.jsonl, events.jsonl, and the PADLL world's "
        "metrics snapshot (metrics.prom, Prometheus text; metrics.json, the "
        "JSON schema) to DIR",
    )

    # -- experiments --------------------------------------------------------------
    exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    exp.add_argument("name", choices=tuple(ARTEFACTS))
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write the experiment's series as CSV files under DIR "
        "(fig4 and fig5 only)",
    )

    # -- ablations ------------------------------------------------------------------
    abl = sub.add_parser("ablation", help="run a design-knob sweep")
    abl.add_argument("name", choices=("lag", "burst", "loop"))
    abl.add_argument("--seed", type=int, default=0)

    # -- sweep ----------------------------------------------------------------------
    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel, cached sweep runner",
    )
    sweep.add_argument(
        "grid",
        choices=(*GRIDS, "all"),
        help="which artefact grid to run",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: $PADLL_SWEEP_CACHE or "
        "./.padll-sweep-cache)",
    )
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down durations (CI smoke / local sanity runs)",
    )

    # -- sharded --------------------------------------------------------------------
    sharded = sub.add_parser(
        "sharded",
        help="run a fig4-style experiment on the sharded fluid engine",
    )
    sharded.add_argument("--seed", type=int, default=0)
    sharded.add_argument(
        "--jobs", type=int, default=100, help="simulated jobs in the cluster"
    )
    sharded.add_argument("--stages-per-job", type=int, default=100)
    sharded.add_argument("--racks", type=int, default=32)
    sharded.add_argument(
        "--shards",
        type=int,
        default=1,
        help="rack blocks, run in-process (results are "
        "bit-identical at any shard count)",
    )
    sharded.add_argument("--clients-per-stage", type=int, default=100)
    sharded.add_argument("--duration", type=float, default=240.0)
    sharded.add_argument("--step-period", type=float, default=60.0)
    sharded.add_argument(
        "--placement",
        default="split",
        help="'split' spreads each job's stages across racks, 'job' pins "
        "whole jobs to racks",
    )
    sharded.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the run digest (CI's shard-invariance check)",
    )

    # -- lint -----------------------------------------------------------------------
    lint = sub.add_parser(
        "lint",
        help="run the determinism/interposition static-analysis rules",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro under the "
        "directory holding pyproject.toml)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json is the CI artifact schema; sarif feeds "
        "GitHub code scanning)",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed findings (text format)",
    )

    # -- operator service ----------------------------------------------------------------
    serve = sub.add_parser(
        "serve",
        help="run the live operator service (control loop + HTTP endpoints)",
    )
    serve.add_argument(
        "--config",
        help="service config JSON document: every world setting (listener, "
        "loop, workload, faults, stage hosts, admin_token, audit_dir, policy "
        "under \"padll\"); default: the built-in ServiceConfig",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="exit cleanly after this many seconds (default: run until signalled)",
    )

    # -- stage host (out-of-process worker) ---------------------------------------------
    stage_host = sub.add_parser(
        "stage-host",
        help="run live stages out-of-process, dialing a controller's socket fabric",
    )
    stage_host.add_argument(
        "--connect", required=True, help="controller control address HOST:PORT"
    )
    stage_host.add_argument("--host-id", required=True, help="this worker's name")
    stage_host.add_argument(
        "--stages",
        required=True,
        help="comma-separated stage ids; the job id is each id's first '/' segment",
    )
    stage_host.add_argument("--seed", type=int, default=0)

    # -- policy configs ----------------------------------------------------------------
    policy = sub.add_parser("policy", help="validate a PADLL config file")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    check = policy_sub.add_parser("check", help="parse and summarise a config")
    check.add_argument("path", help="JSON configuration file")

    for command, run in (
        (gen, _cmd_trace_generate), (stats, _cmd_trace_stats),
        (trun, _cmd_trace_run), (exp, _cmd_experiment), (abl, _cmd_ablation),
        (sweep, _cmd_sweep), (sharded, _cmd_sharded), (lint, _cmd_lint),
        (serve, _cmd_serve), (stage_host, _cmd_stage_host), (check, _cmd_policy_check),
    ):
        command.set_defaults(run=run)
    return parser


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.workloads.abci import generate_aggregate_trace, generate_mdt_trace

    minutes = args.minutes
    if minutes is not None and not minutes > 0:
        raise ConfigError(f"--minutes must be > 0, got {minutes}")
    if args.kind == "aggregate":
        duration = (30 * 24 * 60 if minutes is None else minutes) * 60.0
        trace = generate_aggregate_trace(seed=args.seed, duration=duration)
    else:
        duration = (1800 if minutes is None else minutes) * 60.0
        trace = generate_mdt_trace(seed=args.seed, duration=duration)
    if args.out.endswith(".jsonl"):
        trace.save_jsonl(args.out)
    else:
        trace.save_csv(args.out)
    print(
        f"wrote {trace.n_samples} samples x {len(trace.kinds)} kinds to "
        f"{args.out} (mean {trace.mean_rate() / 1e3:.1f} KOps/s, "
        f"peak {trace.peak_rate() / 1e3:.1f} KOps/s)"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.analysis.plots import sparkline
    from repro.workloads.trace import OpTrace

    if args.path.endswith(".jsonl"):
        trace = OpTrace.load_jsonl(args.path)
    else:
        trace = OpTrace.load_csv(args.path)
    print(f"{args.path}: {trace.n_samples} samples, period {trace.sample_period:.0f}s")
    print(f"  total rate {sparkline(trace.rates(), width=60)}")
    print(f"  mean {trace.mean_rate() / 1e3:8.1f} KOps/s   "
          f"peak {trace.peak_rate() / 1e3:8.1f} KOps/s")
    shares = trace.shares()
    for kind in sorted(trace.kinds, key=lambda k: -shares[k]):
        print(
            f"  {kind:<10} {shares[kind] * 100:6.2f}%  "
            f"mean {trace.mean_rate(kind) / 1e3:8.1f} KOps/s"
        )
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.telemetry import (
        render_controller_timeline,
        render_waterfall,
        run_traced_fig4,
        write_text,
    )
    from repro.telemetry.events import Event
    from repro.telemetry.trace import Span

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError(f"--out {args.out!r} exists and is not a directory")
    traced = run_traced_fig4(
        args.target,
        seed=args.seed,
        duration=args.duration,
        step_period=args.step_period,
        drain_tail=args.drain_tail,
        sample_rate=args.sample_rate,
        trace=True,
    )
    print(
        f"fig4 [{args.target}] seed {args.seed}: sampled "
        f"{traced.sampled_traces} trace(s), {traced.span_count} span(s), "
        f"{traced.event_count} event(s) at rate {args.sample_rate}"
    )
    print()
    print(render_waterfall(
        _records_from_jsonl(Span, traced.spans_jsonl), max_traces=args.traces
    ))
    print()
    print(render_controller_timeline(
        _records_from_jsonl(Event, traced.events_jsonl)
    ))
    if out_dir is not None:
        import json as _json

        write_text(out_dir / "spans.jsonl", traced.spans_jsonl)
        write_text(out_dir / "events.jsonl", traced.events_jsonl)
        write_text(out_dir / "metrics.prom", traced.metrics_text)
        write_text(
            out_dir / "metrics.json",
            _json.dumps(traced.metrics, sort_keys=True, indent=2) + "\n",
        )
        print(f"\nwrote {out_dir}/spans.jsonl, events.jsonl, metrics.prom, metrics.json")
    return 0


def _records_from_jsonl(record, text: str):
    """Parse an exported JSONL text back into ``record`` objects."""
    import json as _json

    return [
        record.from_dict(_json.loads(line)) for line in text.splitlines() if line
    ]


def _cmd_experiment(args: argparse.Namespace) -> int:
    results = resolve(ARTEFACTS[args.name])(seed=args.seed)
    if args.export:
        _export_results(args.name, results, args.export)
    return 0


#: Experiments whose ``main`` returns {label: result} with exportable
#: series, and the result attribute that holds them.
_EXPORTABLE = {"fig4": "series", "fig5": "job_series"}


def _export_results(name: str, results, directory: str) -> None:
    from pathlib import Path

    from repro.analysis.export import export_wide

    attr = _EXPORTABLE.get(name)
    if attr is None:
        print(f"--export is not supported for {name}", file=sys.stderr)
        return
    for label, result in results.items():
        path = export_wide(
            getattr(result, attr), Path(directory) / f"{name}-{label}.csv"
        )
        print(f"exported {path}")


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        sweep_burst_size,
        sweep_control_lag,
        sweep_loop_interval,
    )

    if args.name == "lag":
        for p in sweep_control_lag(seed=args.seed):
            print(
                f"latency {p.latency:5.1f}s  violations "
                f"{p.violation_fraction * 100:5.2f}%  excess "
                f"{p.excess_ops / 1e3:8.0f}K ops"
            )
    elif args.name == "burst":
        for p in sweep_burst_size(seed=args.seed):
            print(
                f"burst {p.burst_seconds:4.1f}s  peak MDS queue "
                f"{p.peak_queue_delay:7.3f}s  peak/cap {p.peak_over_cap:.2f}"
            )
    else:
        for interval, ops in sweep_loop_interval(seed=args.seed).items():
            print(f"loop {interval:5.1f}s  delivered {ops / 1e6:8.1f}M ops")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runner.sweep import SweepRunner

    cells = grid(args.grid, seed=args.seed, quick=args.quick)
    runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
    )
    outcomes = runner.run(cells)
    width = max(len(o.cell.name) for o in outcomes)
    for outcome in outcomes:
        status = "cached" if outcome.cached else "computed"
        print(f"{outcome.cell.name:<{width}}  {status:<8}  {outcome.elapsed_s:8.2f}s")
    return 0


def _cmd_sharded(args: argparse.Namespace) -> int:
    from repro.experiments.fig4_sharded import run_fig4_sharded

    result = run_fig4_sharded(
        seed=args.seed,
        n_jobs=args.jobs,
        stages_per_job=args.stages_per_job,
        n_racks=args.racks,
        n_shards=args.shards,
        clients_per_stage=args.clients_per_stage,
        duration=args.duration,
        step_period=args.step_period,
        placement=args.placement,
    )
    if args.digest_only:
        print(result.digest())
        return 0
    config = result.results["padll"].config
    print(
        f"sharded fig4: {config.n_jobs} jobs x {config.stages_per_job} stages "
        f"= {config.n_stages} stages ({result.n_clients:,} clients) on "
        f"{config.n_racks} racks / {config.n_shards} shard(s), "
        f"placement={config.placement}"
    )
    for name in sorted(result.series):
        series = result.series[name]
        print(
            f"  {name:<9} mean {float(series.mean()):>12,.1f} ops/s  "
            f"peak {float(series.max()):>12,.1f} ops/s"
        )
    print(f"  limits    {[round(v, 1) for v in result.limits]}")
    print(f"digest {result.digest()}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        lint_paths,
        load_config,
        render_json,
        render_sarif,
        render_text,
    )

    result = lint_paths([Path(p) for p in args.paths] or None, load_config())
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _cmd_policy_check(args: argparse.Namespace) -> int:
    from repro.core.config import load_config

    try:
        config = load_config(args.path)
    except ConfigError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"{args.path}: OK")
    if config.pfs_mounts:
        print(f"  pfs mounts : {', '.join(config.pfs_mounts)}")
    for spec in config.channels:
        print(f"  channel    : {spec.channel_id} (rule {spec.rule.name!r})")
    for policy in config.policies:
        scope = policy.scope.job_id or "<all jobs>"
        print(f"  policy     : {policy.name} -> {policy.scope.channel_id} "
              f"[{scope}]")
    if config.algorithm is not None:
        print(f"  algorithm  : {type(config.algorithm).__name__}")
        for job, rate in config.reservations.items():
            print(f"    reservation {job}: {rate:.0f} ops/s")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import os
    import signal
    import threading
    import time as _time

    from repro.service import (
        OperatorServer,
        ServiceConfig,
        ServiceRuntime,
        load_service_config,
    )

    if args.duration is not None and not args.duration > 0:
        raise ConfigError(f"--duration must be > 0, got {args.duration}")
    config = load_service_config(args.config) if args.config else ServiceConfig()
    if config.admin_token is None:
        # The secret stays off argv (``ps`` shows argv to every user).
        admin_token = os.environ.get("PADLL_ADMIN_TOKEN") or None
        config = dataclasses.replace(config, admin_token=admin_token)
    runtime = ServiceRuntime(config)
    server = OperatorServer(runtime, config.host, config.port)

    def on_signal(signum, frame) -> None:
        runtime.admin(
            "service.shutdown", {"reason": f"signal {signal.Signals(signum).name}"}
        )

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    runtime.start()
    server.start()
    print(f"padll-repro serve: listening on {server.url}", flush=True)
    print(
        "endpoints: /metrics /healthz /readyz /api/v1/snapshot "
        "/api/v1/spans /api/v1/events /api/v1/audit /api/v1/admin/<verb>",
        flush=True,
    )
    deadline = None if args.duration is None else _time.monotonic() + args.duration
    while not runtime.shutdown_requested:
        timeout = (
            0.2 if deadline is None else min(0.2, deadline - _time.monotonic())
        )
        if deadline is not None and timeout <= 0:
            break
        runtime.wait_for_shutdown(timeout)

    reason = runtime.shutdown_reason or "duration elapsed"
    print(f"padll-repro serve: shutting down ({reason})", flush=True)
    server.stop()
    error = runtime.stop()
    snapshot = runtime.snapshot()
    loop_info = snapshot["loop"]
    print(
        f"loop: {loop_info['ticks']} ticks, {loop_info['tick_errors']} errors; "
        f"fabric: {snapshot['fabric'].get('calls', 0)} calls, "
        f"{snapshot['fabric'].get('dropped', 0)} dropped; "
        f"audit: {len(runtime.audit)} actions"
    )
    workers = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and thread.is_alive()
    ]
    print(f"clean shutdown: {len(workers)} worker thread(s) remaining", flush=True)
    if workers:
        print(f"  still alive: {workers}", flush=True)
        return 1
    if error is not None:
        print(f"control loop ended with error: {error!r}", flush=True)
        return 1
    return 0


def _cmd_stage_host(args: argparse.Namespace) -> int:
    import signal

    from repro.service.stagehost import StageHost

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigError(f"--connect must be HOST:PORT, got {args.connect!r}")
    stage_ids = [part.strip() for part in args.stages.split(",") if part.strip()]
    stage_host = StageHost(args.host_id, stage_ids, seed=args.seed)

    def on_signal(signum, frame) -> None:
        stage_host.request_stop()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        stage_host.start(host, int(port_text))
    except ReproError as exc:
        print(f"stage-host {args.host_id}: start failed: {exc}")
        return 1
    print(
        f"stage-host {args.host_id}: {len(stage_ids)} stage(s) registered "
        f"with {args.connect}",
        flush=True,
    )
    code = stage_host.run()
    print(
        f"stage-host {args.host_id}: exiting "
        f"({'link lost' if code else 'stopped'}), "
        f"{stage_host.pushes} telemetry push(es)",
        flush=True,
    )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        # A refused input -- a missing or malformed file, a bad setting.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager that quit early (e.g. `| head`).
        return 0


if __name__ == "__main__":
    sys.exit(main())
