"""One run of one workload: untraced (end-to-end metrics) or traced (per-layer)."""

from __future__ import annotations

import importlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from padllbench import metrics as catalogue
from padllbench import stats
from padllbench.calibrate import NOMINAL_S, Calibrator, Meter
from padllbench.tracer import SpanTracer
from padllbench.workloads import load
from padllbench.workloads.base import Check, Repeat, Traced, Workload

__all__ = ["run_workload", "probe_setup", "provenance", "REPO_ROOT"]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``setup_s`` is the median over this many fresh processes (one in a
#: smoke run), each importing the program and setting the workload up cold:
#: what a user pays before the first result, one-off lazy initialisation
#: included, which repeating set-up inside one process would hide.
SETUP_PROBES = 3
MIN_REPEATS = 3
#: The traced run's split of ``--seconds``: untraced reference repeats,
#: traced repeats, and the rest for the isolated drives.
REFERENCE_SHARE = 0.25
TRACED_SHARE = 0.35

#: Span-name prefix -> layer, longest prefix first where they nest.
LAYERS = (
    "simulation.sharded",
    "simulation",
    "workloads.abci",
    "workloads.replayer",
    "experiments.harness",
    "experiments.fig4",
    "core.differentiation",
    "core.stage",
    "core.channel",
    "core.controller",
    "core.hierarchy",
    "core.algorithms",
    "core.fabric",
    "core.wire",
    "net",
    "interpose",
    "pfs",
    "monitoring",
    "bench",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name.startswith(layer):
            return layer
    return "other"


# -- provenance ----------------------------------------------------------------
def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly: a ``git`` child
    process would count towards ``peak_rss_mb``, and a checkout that is
    not a repository must not climb to a parent's."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git_dir / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _loadavg_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:  # no /proc/loadavg in this sandbox
        return -1.0


def provenance(seed: int) -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        # Looked up without importing it: importing is part of setup_s.
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_start": _loadavg_1m(),
        "calibration_nominal_s": NOMINAL_S,
    }


def _finish_provenance(record: Dict[str, Any], started: float, calibrator: Calibrator) -> None:
    record["loadavg_1m_end"] = _loadavg_1m()
    record["wall_s"] = time.perf_counter() - started
    record["calibration_samples"] = stats.summary(calibrator.samples)
    # The previous workload of a full run alone leaves this near 1.0.
    if record["loadavg_1m_start"] > 1.5:
        record["warning"] = (
            "1-minute load average above 1.5 at start: something else was running"
        )


def _peak_rss_mb() -> float:
    # Linux reports KiB.  Children count once reaped (the shard workers are,
    # by then): the largest child, on top of this process.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- shared steps -------------------------------------------------------------
def _pin_to_first_cpu() -> None:
    """One CPU for every thread and child of the run: see bench/README.md."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_and_set_up(workload: Workload) -> None:
    for module in workload.imports:
        importlib.import_module(module)
    workload.setup()


def probe_setup(name: str, seed: int, smoke: bool, out_dir: Path) -> Dict[str, float]:
    """In a fresh process: import the program, set the workload up, time it."""
    meter = Meter(Calibrator())
    workload: Workload = load(name)(seed, smoke, str(out_dir / "scratch"))
    if workload.pin:
        _pin_to_first_cpu()
    timed = meter.run(_import_and_set_up, workload)
    workload.teardown()
    return {"raw_s": timed.raw_s, "norm_s": timed.norm_s}


def _probe_setups(workload: Workload, out_dir: Path) -> List[Dict[str, float]]:
    command = [
        sys.executable, str(REPO_ROOT / "bench" / "run.py"),
        "--workload", workload.name, "--seed", str(workload.seed),
        "--out", str(out_dir), "--probe-setup",
    ]
    if workload.smoke:
        command.append("--smoke")
    probes = []
    for _ in range(1 if workload.smoke else SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        probes.append(json.loads(done.stdout.strip().split("\n")[-1]))
    return probes


def _repeat_until(workload: Workload, meter: Meter, seconds: float, at_least: int) -> List[Repeat]:
    repeats: List[Repeat] = []
    started = time.perf_counter()
    while len(repeats) < at_least or time.perf_counter() - started < seconds:
        repeats.append(workload.repeat(meter))
    return repeats


def _tally(checks: Sequence[Check]) -> Tuple[int, int]:
    return (
        max(1, sum(check.attempted for check in checks)),
        sum(check.failed for check in checks),
    )


def _metric(value: float, name: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": catalogue.unit_of(name)}


# -- the two kinds of run -------------------------------------------------------
def _run_untraced(
    workload: Workload, meter: Meter, seconds: float, out_dir: Path, result: Dict[str, Any]
) -> None:
    _import_and_set_up(workload)
    try:
        workload.warmup(meter)
        repeats = _repeat_until(workload, meter, seconds, 2 if workload.smoke else MIN_REPEATS)
        checks = workload.checks(repeats, meter)
    finally:
        workload.teardown()
    # Read before the probes below: their processes are children too.
    peak_rss_mb = _peak_rss_mb()
    setups = _probe_setups(workload, out_dir)

    # Per-repeat samples: what --agree takes quartiles of.  The reported
    # unit cost is the median of every unit of every repeat, pooled.
    samples = {
        "setup_s": [probe["norm_s"] for probe in setups],
        "work_per_s": [r.work_per_s for r in repeats],
        "unit_cost_us": [stats.median(r.unit_costs_us) for r in repeats],
        "peak_rss_mb": [peak_rss_mb],
    }
    reported = {name: stats.median(values) for name, values in samples.items()}
    reported["unit_cost_us"] = stats.median([c for r in repeats for c in r.unit_costs_us])
    attempted, failed = _tally(checks)
    named: Dict[str, Any] = {}
    for name, unit in workload.named_units().items():
        values = [r.named[name] for r in repeats]
        named[name] = {"unit": unit, **stats.summary(values)}
    named["failure_rate"] = {"unit": "ratio", "median": failed / attempted, "n": 1}
    result.update(
        metrics={name: _metric(value, name) for name, value in reported.items()},
        samples=samples,
        named=named,
        generic_is={
            "work_per_s": workload.work_per_s_is,
            "unit_cost_us": workload.unit_cost_us_is,
        },
        raw={
            "setup_s": [probe["raw_s"] for probe in setups],
            "work_per_s": [r.work / r.raw_s for r in repeats],
            "repeat_s": [r.raw_s for r in repeats],
        },
        checks=[vars(check) for check in checks],
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
    )


def _run_traced(
    workload: Workload, meter: Meter, seconds: float, out_dir: Path, result: Dict[str, Any]
) -> None:
    _import_and_set_up(workload)
    tracer = SpanTracer()
    try:
        workload.warmup(meter)
        reference = _repeat_until(workload, meter, seconds * REFERENCE_SHARE, 1)

        workload.instrument(tracer)
        tracer.wrap(Calibrator, "sample", "bench.calibrate")
        totals: Dict[str, List[float]] = {}
        factors: List[float] = []
        traced_repeats: List[Repeat] = []
        traced_raw = traced_norm = 0.0
        started = time.perf_counter()
        try:
            while not traced_repeats or time.perf_counter() - started < seconds * TRACED_SHARE:
                first_span = len(tracer.spans)
                begin = time.perf_counter()
                with tracer.span("bench.repeat"):
                    repeat = workload.traced_repeat(meter)
                raw = time.perf_counter() - begin
                traced_repeats.append(repeat)
                # The repeat bracketed its own units; their work-weighted
                # factor serves for everything recorded inside it.
                factor = repeat.norm_s / repeat.raw_s
                traced_raw += raw
                traced_norm += raw * factor
                for name, (calls, total, own) in tracer.take().items():
                    entry = totals.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total * factor
                    entry[2] += own * factor
                factors.extend([factor] * (len(tracer.spans) - first_span))
        finally:
            tracer.unpatch()
        isolated = workload.isolated(meter)
    finally:
        workload.teardown()

    traced = Traced(
        totals={name: (int(c), t, s) for name, (c, t, s) in totals.items()},
        spans=tracer.spans,
        factors=factors,
        sums=tracer.sums,
        wall_s=traced_norm,
        repeats=traced_repeats,
        reference=reference,
        isolated=isolated,
    )
    values = {name: 0.0 for name, _unit, _better in catalogue.PER_LAYER}
    values.update(isolated)
    values.update(workload.layer_metrics(traced))

    self_by_layer: Dict[str, float] = {}
    for name, (_calls, _total, own) in traced.totals.items():
        layer = layer_of(name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
    traced_work = sum(r.work for r in traced_repeats)
    values["bench.trace_overhead_ratio"] = stats.median(
        [r.work_per_s for r in reference]
    ) / stats.median([r.work_per_s for r in traced_repeats])
    values["bench.layer_sum_ratio"] = sum(self_by_layer.values()) / traced_norm
    values["bench.generator_cpu_share"] = self_by_layer.get("bench", 0.0) / traced_norm
    values["core.fabric.drops"] = float(
        sum(n for name, n in tracer.errors.items() if name.startswith("core.fabric"))
    )
    values["net.socket.errors"] = float(
        sum(n for name, n in tracer.errors.items() if name.startswith("net."))
    )
    unknown = sorted(set(values) - {name for name, *_ in catalogue.PER_LAYER})
    if unknown:
        raise KeyError(f"per-layer metrics missing from the catalogue: {unknown}")

    ratio = values["bench.layer_sum_ratio"]
    checks = [
        Check(
            "layer self times sum to the traced wall within [0.90, 1.05]",
            1,
            0 if 0.90 <= ratio <= 1.05 else 1,
            f"ratio {ratio:.4f}",
        )
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{workload.name}.jsonl"
    tracer.write_jsonl(str(trace_path))
    table = self_time_table(traced, self_by_layer, traced_work)
    (out_dir / f"selftime_{workload.name}.txt").write_text(table, encoding="utf-8")
    attempted, failed = _tally(checks)
    result.update(
        metrics={name: _metric(value, name) for name, value in values.items()},
        self_time_table=table,
        spans={"retained": len(tracer.spans), "dropped": tracer.dropped, "file": str(trace_path)},
        traced_wall_s={"raw": traced_raw, "reference_speed": traced_norm},
        checks=[vars(check) for check in checks],
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
    )


def self_time_table(traced: Traced, self_by_layer: Dict[str, float], work: float) -> str:
    wall = traced.wall_s or 1.0
    lines = [
        f"traced wall {wall:.3f} s at reference speed, {work:g} units of work",
        "",
        f"{'layer':<24}{'self s':>10}{'share':>8}",
    ]
    for layer, own in sorted(self_by_layer.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<24}{own:>10.4f}{own / wall:>8.3f}")
    lines += ["", f"{'span':<44}{'calls':>10}{'total s':>10}{'self s':>10}"]
    for name, (calls, total, own) in sorted(traced.totals.items(), key=lambda item: -item[1][2]):
        lines.append(f"{name:<44}{calls:>10}{total:>10.4f}{own:>10.4f}")
    return "\n".join(lines) + "\n"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: Path,
) -> Dict[str, Any]:
    """Run one workload once; returns the result document."""
    started = time.perf_counter()
    calibrator = Calibrator()
    meter = Meter(calibrator)
    workload: Workload = load(name)(seed, smoke, str(out_dir / "scratch"))
    original_affinity = os.sched_getaffinity(0)
    if workload.pin:
        _pin_to_first_cpu()
    record = provenance(seed)
    result: Dict[str, Any] = {
        "schema": 1,
        "smoke": smoke,
        "workload": name,
        "trace": int(trace),
        "seed": seed,
        "seconds": seconds,
        "provenance": record,
    }
    try:
        if trace:
            _run_traced(workload, meter, seconds, out_dir, result)
        else:
            _run_untraced(workload, meter, seconds, out_dir, result)
    finally:
        os.sched_setaffinity(0, original_affinity)
    _finish_provenance(record, started, calibrator)
    return result
