"""The benchmark's own checks.  Outside tier-1: ``python -m pytest bench/tests``.

* ``BENCHMARK.json`` is well-formed and names exactly the catalogue's metrics;
* a ``--smoke`` run of all five workloads reports every one of them, with a
  unit, and is marked so it can never pass for a measurement;
* the driver's invocation prints the one-line result it expects;
* a run leaves no process behind;
* every correctness check can fail;
* ``--agree`` tells agreement from disagreement from noise;
* without a program to measure the benchmark refuses to run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

from padllbench import cli, metrics  # noqa: E402
from padllbench.workloads import live_control_wire, live_interpose  # noqa: E402
from padllbench.workloads import sharded_cluster, sim_fig4_perop  # noqa: E402
from padllbench.workloads import sim_multistage_sharing  # noqa: E402
from padllbench.workloads.base import digest_mismatches  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


@pytest.fixture(scope="module")
def benchmark_json():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed(benchmark_json):
    doc = benchmark_json
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert doc["paths"] == ["bench"]
    assert doc["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) <= 3420, "no room for set-up and checks"
    names = []
    for workload in doc["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used twice"
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= doc["end_to_end"][0].items()


def test_benchmark_json_names_the_catalogue(benchmark_json):
    doc = benchmark_json
    assert {w["name"]: w["why"] for w in doc["workloads"]} == metrics.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metrics.PER_LAYER


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    started = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    (result_file,) = out.glob("smoke_*.json")
    with open(result_file, encoding="utf-8") as fh:
        return json.load(fh), done.stdout, elapsed


def test_smoke_covers_every_workload_and_metric(smoke, benchmark_json):
    document, stdout, elapsed = smoke
    assert document["smoke"] is True
    assert elapsed < 15.0, f"smoke took {elapsed:.1f} s"
    assert sorted(document["workloads"]) == sorted(w["name"] for w in benchmark_json["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    for name, runs in document["workloads"].items():
        for kind, expected in (("untraced", end_to_end), ("traced", per_layer)):
            run = runs[kind]
            assert run["smoke"] is True and run["correct"] is True, (name, kind, run["checks"])
            assert run["failed"] == 0 and run["attempted"] >= 1
            reported = {m: v["unit"] for m, v in run["metrics"].items()}
            assert reported == expected, (name, kind)
            for metric, unit in expected.items():
                assert f"{metric} " in stdout and unit in stdout
        assert all(v["value"] > 0 for v in runs["untraced"]["metrics"].values()), name
        assert 0.90 <= runs["traced"]["metrics"]["bench.layer_sum_ratio"]["value"] <= 1.05
    provenance = document["workloads"]["live_control_wire"]["untraced"]["provenance"]
    for key in ("git_sha", "seed", "python", "numpy", "nproc", "affinity",
                "loadavg_1m_start", "loadavg_1m_end", "wall_s"):
        assert key in provenance
    assert len(provenance["affinity"]) == 1, "the live workloads pin to one CPU"


def test_traced_run_writes_spans(smoke, tmp_path):
    document, _stdout, _elapsed = smoke
    spans = document["workloads"]["sim_multistage_sharing"]["traced"]["spans"]
    with open(spans["file"], encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert sorted(first) == ["end_ns", "id", "name", "parent", "start_ns", "trace"]
    assert spans["retained"] > 0


def test_driver_invocation_prints_the_result_line(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "live_interpose", "--seed", "3", "--seconds", "0.2",
               "--trace", "0", "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().split("\n")[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for metric in line["metrics"].values():
        assert sorted(metric) == ["unit", "value"] and metric["value"] > 0


def _session_members(session: int):
    """Processes of a session, as (pid, command) pairs.  Zombies count: once
    the session's leader has been waited for, a zombie is a process that
    outlived it and that nobody reaped."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(errors="replace")
        except OSError:
            continue
        comm, rest = stat.split("(", 1)[1].rsplit(")", 1)
        fields = rest.split()  # state ppid pgrp session ...
        if int(fields[3]) == session:
            members.append((int(entry.name), comm))
    return members


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_leaves_no_process_behind(tmp_path, trace):
    # sharded_cluster starts shard workers and, through its shared memory,
    # the multiprocessing resource tracker, which by itself outlives the run.
    child = subprocess.Popen(
        RUN + ["--workload", "sharded_cluster", "--seed", "5", "--seconds", "0.2",
               "--trace", trace, "--smoke", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    left = _session_members(child.pid)
    assert child.returncode == 0, stdout + stderr
    assert left == []


# -- every correctness check can fail ---------------------------------------------
def test_fig4_digest_check_catches_a_corrupted_digest():
    good = {f"{t}/0": "aa" for t in sim_fig4_perop.TARGETS}
    good.update({f"traced/{t}/0": "aa" for t in sim_fig4_perop.TARGETS})
    assert all(c.failed == 0 for c in sim_fig4_perop.check_digests([good, dict(good)], 0))
    drifted = dict(good, **{"open/0": "bb"})
    across, with_tracing = sim_fig4_perop.check_digests([good, drifted], 0)
    assert across.failed == 1 and "open/0" in across.detail
    assert with_tracing.failed == 1  # traced/open/0 no longer matches open/0
    assert digest_mismatches([{"k": "a"}, {"k": "a"}, {}])[1] == 1


def test_overcommit_check_catches_a_rate_above_capacity():
    log = [(1.0, "job0", 60.0), (1.0, "job1", 40.0), (2.0, "job0", 100.0)]
    assert sim_multistage_sharing.worst_overcommit(log, 100.0)[:2] == (2, 0)
    cycles, over, detail = sim_multistage_sharing.worst_overcommit(
        log + [(2.0, "job1", 0.5)], 100.0
    )
    assert (cycles, over) == (2, 1) and "t=2.0" in detail
    assert sim_multistage_sharing.log_digest(log) != sim_multistage_sharing.log_digest(log[:-1])


def test_rate_check_catches_both_directions():
    assert live_interpose.rate_check(9_900.0, 5_000.0, 1.0).failed == 0
    assert live_interpose.rate_check(10_500.0, 5_000.0, 1.0).failed == 1  # not throttled
    assert live_interpose.rate_check(9_000.0, 5_000.0, 1.0).failed == 1  # starved


def test_log_check_catches_one_differing_float_and_a_missing_entry():
    log = [(1.0, "job0", 33.333333333333336), (1.0, "job1", 66.66666666666667)]
    assert live_control_wire.check_logs(log, list(log)).failed == 0
    nudged = [log[0], (1.0, "job1", 66.66666666666666)]
    assert live_control_wire.check_logs(log, nudged).failed == 1
    assert live_control_wire.check_logs(log, log[:1]).failed == 1
    assert live_control_wire.check_logs([], []).failed == 1


def test_shard_digest_check():
    assert sharded_cluster.check_shard_digests("abc", "abc").failed == 0
    assert sharded_cluster.check_shard_digests("abc", "abd").failed == 1
    assert sharded_cluster.check_shard_digests("", "").failed == 1


# -- --agree ------------------------------------------------------------------------
def _document(work_per_s, failed=0):
    run = {"samples": {"work_per_s": work_per_s}, "failed": failed}
    return {"workloads": {"w": {"untraced": run}}}


def test_agree_verdicts():
    benchmark = {"end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}
    ]}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]

    def verdict(a, b):
        (row,) = cli.agree(_document(a), _document(b), benchmark)
        return row["verdict"]

    assert verdict(steady, [v * 0.95 for v in steady]) == "agree"
    assert verdict(steady, [v * 1.30 for v in steady]) == "agree"  # better is not worse
    assert verdict(steady, [v * 0.85 for v in steady]) == "DISAGREE"
    assert verdict(steady, [60.0, 100.0, 140.0, 80.0, 120.0]) == "unresolved"
    rows = cli.agree(_document(steady), _document(steady, failed=2), benchmark)
    assert [row["verdict"] for row in rows] == ["agree", "DISAGREE"]


def test_without_a_program_the_benchmark_refuses(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_fig4_perop", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
