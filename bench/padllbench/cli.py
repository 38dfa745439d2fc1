"""Command line of ``bench/run.py``."""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from padllbench import metrics as catalogue
from padllbench import stats

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
DEFAULT_OUT = BENCH_DIR / "out"
SMOKE_SECONDS = 0.3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="The repository benchmark: five workloads over the simulated "
        "and live paths.  Without --workload, runs them all, untraced then traced, "
        "each in its own process, and writes one result file.",
    )
    parser.add_argument("--workload", choices=sorted(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="1: the traced run (per-layer metrics); 0: the untraced run "
        "(end-to-end metrics).  Default: both, one after the other.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, a fraction of a second each: checks the plumbing, measures nothing",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for result files")
    # What the untraced run starts, several times, to measure setup_s.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--agree", nargs=2, metavar=("A.json", "B.json"), type=Path,
        help="compare two result files of full runs against the bounds in BENCHMARK.json",
    )
    return parser


def _default_seconds() -> float:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


# -- one workload, one process --------------------------------------------------
def _print_run(result: Dict[str, Any]) -> None:
    kind = "traced" if result["trace"] else "untraced"
    tag = " [SMOKE: not a measurement]" if result["smoke"] else ""
    print(f"== {result['workload']} ({kind}, seed {result['seed']}, "
          f"{result['seconds']:g} s){tag}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44}{metric['value']:>16.6g} {metric['unit']}")
    if not result["trace"]:
        is_ = result["generic_is"]
        print(f"  (work_per_s is {is_['work_per_s']}; unit_cost_us is {is_['unit_cost_us']})")
        for name, summary in result["named"].items():
            spread = ""
            if summary.get("n", 1) > 1:
                spread = f"  [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n {summary['n']}]"
            print(f"  {name:<44}{summary['median']:>16.6g} {summary['unit']}{spread}")
    else:
        print(result["self_time_table"])
    for check in result["checks"]:
        verdict = "ok" if check["failed"] == 0 else "FAILED"
        detail = f" -- {check['detail']}" if check["detail"] else ""
        print(f"  check {verdict}: {check['name']} "
              f"({check['failed']} of {check['attempted']} failed){detail}")
    warning = result["provenance"].get("warning")
    if warning:
        print(f"  warning: {warning}")


def _run_one(args: argparse.Namespace) -> int:
    from padllbench.runner import run_workload

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else _default_seconds()
    result = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.out
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"result_{args.workload}_trace{int(bool(args.trace))}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _print_run(result)
    print(f"  result file: {path}")
    # The driver reads this last line.
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# -- every workload, one process each ---------------------------------------------
def _run_all(args: argparse.Namespace) -> int:
    from padllbench.runner import provenance

    started = time.perf_counter()
    workloads = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    document: Dict[str, Any] = {
        "schema": 1,
        "smoke": args.smoke,
        "seed": args.seed,
        "provenance": provenance(args.seed),
        "workloads": {},
    }
    def run_both(workload: str) -> tuple[str, Dict[str, Any], int]:
        """The workload's untraced then traced run, each in its own process."""
        entry: Dict[str, Any] = {}
        printed = ""
        status = 0
        for trace in (0, 1):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--trace", str(trace), "--out", str(args.out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, capture_output=True, text=True)
            # Everything but the driver's line, which means nothing here.
            printed += "\n".join(child.stdout.rstrip("\n").split("\n")[:-1]) + "\n"
            printed += child.stderr
            if child.returncode != 0:
                status = 1
            path = args.out / f"result_{workload}_trace{trace}.json"
            if child.returncode in (0, 1) and path.exists():
                with open(path, encoding="utf-8") as fh:
                    entry["traced" if trace else "untraced"] = json.load(fh)
        return printed, entry, status

    # A measurement runs one process at a time.  A smoke run measures
    # nothing, so it may as well overlap its processes.
    status = 0
    with ThreadPoolExecutor(max_workers=3 if args.smoke else 1) as pool:
        for workload, (printed, entry, failed) in zip(workloads, pool.map(run_both, workloads)):
            sys.stdout.write(printed)
            document["workloads"][workload] = entry
            status = status or failed
    document["provenance"]["wall_s"] = time.perf_counter() - started
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    name = f"{'smoke' if args.smoke else 'bench'}_{stamp}_seed{args.seed}.json"
    path = args.out / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({document['provenance']['wall_s']:.0f} s)")
    return status


# -- --agree ----------------------------------------------------------------------
def agree(first: Dict[str, Any], second: Dict[str, Any], benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (end-to-end metric, workload) present in both documents."""
    rows: List[Dict[str, Any]] = []
    for spec in benchmark["end_to_end"]:
        name, bound, better = spec["name"], spec["bound"], spec["better"]
        for workload in first["workloads"]:
            try:
                a = first["workloads"][workload]["untraced"]["samples"][name]
                b = second["workloads"][workload]["untraced"]["samples"][name]
            except KeyError:
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
            if max(stats.spread(a), stats.spread(b)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            rows.append(
                {
                    "metric": name, "workload": workload, "unit": spec["unit"],
                    "a": qa, "b": qb, "n": (len(a), len(b)),
                    "ratio": ratio, "bound": bound, "verdict": verdict,
                }
            )
    for workload, runs in list(first["workloads"].items()) + list(second["workloads"].items()):
        failed = runs.get("untraced", {}).get("failed", 0)
        if failed:
            rows.append(
                {"metric": "failure_rate", "workload": workload, "verdict": "DISAGREE",
                 "detail": f"{failed} failed checks"}
            )
    return rows


def _agree(paths: Sequence[Path]) -> int:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if any(document.get("smoke") for document in documents):
        print("refusing to compare: a smoke run is not a measurement", file=sys.stderr)
        return 2
    rows = agree(documents[0], documents[1], benchmark)
    print(f"A = {paths[0]}\nB = {paths[1]}  (ratio = B median / A median; base A)")
    print(f"{'metric':<14}{'workload':<24}{'A median [q1, q3] n':<42}"
          f"{'B median [q1, q3] n':<42}{'B/A':>8}{'bound':>7}  verdict")
    for row in rows:
        if "a" not in row:
            print(f"{row['metric']:<14}{row['workload']:<24}{row['detail']:<84}"
                  f"{'':>15}  {row['verdict']}")
            continue
        cells = [
            f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {n} {row['unit']}"
            for q, n in ((row["a"], row["n"][0]), (row["b"], row["n"][1]))
        ]
        print(f"{row['metric']:<14}{row['workload']:<24}{cells[0]:<42}{cells[1]:<42}"
              f"{row['ratio']:>8.3f}{row['bound']:>7.2f}  {row['verdict']}")
    disagreements = [row for row in rows if row["verdict"] == "DISAGREE"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(disagreements)} disagree, {len(unresolved)} unresolved "
          "(spread wider than the bound: neither changed nor unchanged)")
    return 1 if disagreements else 0


def _children() -> List[int]:
    """Pids of the live processes whose parent is this one."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and brackets.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Leave no process behind, on every path out of a run.

    The shard workers are joined by ``ShardPool.close``; what outlives
    them is the ``multiprocessing`` resource tracker that the pool's
    shared memory starts: it ends only once its parent has closed its
    pipe, that is, after this process has exited.  Stop it here and wait
    for it, then kill and reap whatever else is still a child.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=5.0)
            if child.is_alive():
                child.kill()
                child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    # CPython keeps the tracker's write end in ``_fd`` and has no public
    # way to stop it; closing that descriptor is what ``_stop`` does.
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _main(args)
    finally:
        stop_children()


def _main(args: argparse.Namespace) -> int:
    if args.agree:
        return _agree(args.agree)
    if args.probe_setup:
        from padllbench.runner import probe_setup

        print(json.dumps(probe_setup(args.workload, args.seed, args.smoke, args.out)))
        return 0
    if args.workload and args.trace is not None:
        return _run_one(args)
    return _run_all(args)
