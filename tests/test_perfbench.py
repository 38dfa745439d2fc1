"""Smoke tests for the perf-benchmark harness.

These run every benchmark at a tiny scale -- the point is that the
harness executes end to end, reports positive throughput, and writes a
well-formed ``BENCH_<stamp>.json``, not that the numbers mean anything.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perfbench import (
    PerfbenchConfig,
    bench_classifier,
    bench_control,
    bench_engine,
    bench_sharded_control,
    bench_stage,
    compare_reports,
    latest_report,
    run_perfbench,
    save_report,
)


class TestMicroBenches:
    def test_engine_bench_reports_throughput(self):
        result = bench_engine(duration=20.0)
        assert result["value"] > 0
        assert result["work"] > 0
        assert result["elapsed_s"] > 0

    def test_classifier_bench_reports_throughput(self):
        result = bench_classifier(n_ops=2_000)
        assert result["value"] > 0
        assert result["work"] == 2_000

    def test_stage_bench_reports_throughput(self):
        result = bench_stage(n_ops=2_000)
        assert result["value"] > 0
        assert result["work"] == 2_000

    def test_control_bench_reports_all_cluster_sizes(self):
        result = bench_control(n_cycles=10)
        assert result["value"] > 0
        assert result["cycles_per_sec_8_stages"] > 0
        assert result["cycles_per_sec_256_stages"] > 0

    def test_sharded_control_bench_reports_cluster_shape(self):
        result = bench_sharded_control(n_stages=64, n_cycles=3)
        assert result["value"] > 0
        assert result["n_stages"] == 64.0
        assert result["n_jobs"] == 16.0
        assert result["n_clients"] == 6400.0


class TestHarness:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PerfbenchConfig(repeats=0)
        with pytest.raises(ValueError):
            PerfbenchConfig(scale=0.0)
        with pytest.raises(ValueError):
            PerfbenchConfig(warmup=-1)
        with pytest.raises(ValueError):
            PerfbenchConfig(label="two\nlines")
        with pytest.raises(ValueError):
            PerfbenchConfig(label="x" * 121)

    def test_warmup_runs_are_untimed(self):
        calls = []

        def fake_bench():
            calls.append(len(calls))
            return {"value": float(len(calls)), "elapsed_s": 0.1}

        from repro.perfbench.harness import _best_of

        value, repeats, _detail = _best_of(fake_bench, repeats=2, warmup=1)
        # Three calls total, but only the two recorded repeats count.
        assert len(calls) == 3
        assert repeats == (2.0, 3.0)
        assert value == 3.0

    def test_run_and_save_report(self, tmp_path):
        config = PerfbenchConfig(repeats=1, scale=0.01, label="smoke")
        report = run_perfbench(config)
        path = save_report(report, tmp_path)
        assert path.name == f"BENCH_{report.stamp}.json"
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["label"] == "smoke"
        assert set(data["benchmarks"]) == {
            "engine_events_per_sec",
            "stage_ops_per_sec",
            "classifier_decisions_per_sec",
            "control_cycles_per_sec",
            "telemetry_off_stage_ops_per_sec",
            "service_snapshot_per_sec",
            "fig4_sim_seconds_per_sec",
            "sweep_cells_per_sec",
            "socket_rpc_round_trips_per_sec",
            "sharded_control_cycles_per_sec",
            "fig4_sharded_sim_seconds_per_sec",
        }
        assert data["warmup"] == 1
        for bench in data["benchmarks"].values():
            assert bench["value"] > 0
            assert len(bench["repeats"]) == 1
        assert "perfbench" in report.summary()

    def test_only_filters_benchmarks_and_rejects_unknown(self):
        config = PerfbenchConfig(repeats=1, scale=0.01, warmup=0)
        report = run_perfbench(config, only=["control_cycles_per_sec"])
        assert set(report.benchmarks) == {"control_cycles_per_sec"}
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_perfbench(config, only=["no_such_bench"])


def report_dict(**benchmarks):
    return {
        "benchmarks": {
            name: {"value": value, "unit": "ops/s"}
            for name, value in benchmarks.items()
        }
    }


class TestCompare:
    def test_regression_flagged_past_threshold(self):
        comps = compare_reports(
            report_dict(a=100.0, b=100.0),
            report_dict(a=49.0, b=51.0),
            threshold=0.5,
        )
        by_name = {c.name: c for c in comps}
        assert by_name["a"].regressed
        assert by_name["a"].change == pytest.approx(-0.51)
        assert not by_name["b"].regressed

    def test_missing_benchmarks_never_regress(self):
        comps = compare_reports(
            report_dict(gone=100.0), report_dict(new=1.0), threshold=0.5
        )
        assert [(c.name, c.change, c.regressed) for c in comps] == [
            ("gone", None, False),
            ("new", None, False),
        ]

    def test_zero_baseline_is_not_a_regression(self):
        (comp,) = compare_reports(
            report_dict(a=0.0), report_dict(a=5.0), threshold=0.5
        )
        assert comp.change is None and not comp.regressed

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            compare_reports(report_dict(), report_dict(), threshold=0.0)
        with pytest.raises(ValueError):
            compare_reports(report_dict(), report_dict(), threshold=1.0)

    def test_latest_report_picks_newest_stamp(self, tmp_path):
        assert latest_report(tmp_path / "missing") is None
        assert latest_report(tmp_path) is None
        (tmp_path / "BENCH_20260101T000000Z.json").write_text("{}")
        (tmp_path / "BENCH_20260301T000000Z.json").write_text("{}")
        (tmp_path / "BENCH_20260201T000000Z.json").write_text("{}")
        assert latest_report(tmp_path).name == "BENCH_20260301T000000Z.json"

    def test_committed_trajectory_lives_under_benchmarks_dir(self):
        from pathlib import Path

        from repro.perfbench import DEFAULT_BENCH_DIR

        repo_root = Path(__file__).resolve().parents[1]
        newest = latest_report(repo_root / DEFAULT_BENCH_DIR)
        assert newest is not None
        data = json.loads(newest.read_text())
        assert data["schema_version"] == 1


class TestCli:
    def test_perfbench_smoke_command(self, tmp_path, capsys):
        rc = main(["perfbench", "--smoke", "--out", str(tmp_path)])
        assert rc == 0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "decisions/s" in out
