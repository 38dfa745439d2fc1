"""Tests for the padll-repro command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestTraceCommands:
    def test_generate_and_stats_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(
            ["trace", "generate", "--kind", "mdt", "--minutes", "30",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert "30 samples" in capsys.readouterr().out
        rc = main(["trace", "stats", str(out)])
        assert rc == 0
        stats_out = capsys.readouterr().out
        assert "getattr" in stats_out
        assert "KOps/s" in stats_out

    @pytest.mark.parametrize(
        "name, text", [("ghost.csv", None), ("bad.csv", "x,y\n1,2\n")],
        ids=["missing", "malformed"],
    )
    def test_stats_refuses_a_bad_file(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["trace", "stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_generate_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = main(
            ["trace", "generate", "--kind", "aggregate", "--minutes", "60",
             "--out", str(out)]
        )
        assert rc == 0
        from repro.workloads.trace import OpTrace

        trace = OpTrace.load_jsonl(out)
        assert trace.n_samples == 60

    @pytest.mark.parametrize("kind", ["aggregate", "mdt"])
    @pytest.mark.parametrize("minutes", ["0", "-5"])
    def test_generate_refuses_non_positive_minutes(self, tmp_path, capsys, kind, minutes):
        out = tmp_path / "t.csv"
        rc = main(
            ["trace", "generate", "--kind", kind, "--minutes", minutes,
             "--out", str(out)]
        )
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --minutes must be > 0, got {float(minutes)}\n"

    def test_generate_deterministic(self, tmp_path):
        from repro.workloads.trace import OpTrace

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(
                ["trace", "generate", "--kind", "mdt", "--minutes", "10",
                 "--seed", "9", "--out", str(out)]
            )
        assert OpTrace.load_csv(a) == OpTrace.load_csv(b)


class TestExperimentCommands:
    def test_fig2_runs(self, capsys):
        # fig2 is the fastest full experiment; others share its plumbing.
        rc = main(["experiment", "fig2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "getattr" in out
        assert "98" in out

    def test_every_artefact_gets_the_seed(self, monkeypatch, capsys):
        # One table, one call: `experiment overhead --seed N` used to run
        # seed 0 whatever N was (its branch called main() bare).
        import repro.experiments.overhead as overhead

        seeds = []

        def sim(seed):
            seeds.append(seed)
            return overhead.SimOverheadResult(delivered_delta={"open": 0.0})

        monkeypatch.setattr(overhead, "run_sim_overhead", sim)
        monkeypatch.setattr(
            overhead,
            "run_live_overhead",
            lambda: overhead.LiveOverheadResult(
                n_ops=4, baseline_seconds=1.0, passthrough_seconds=1.0
            ),
        )
        assert main(["experiment", "overhead", "--seed", "5"]) == 0
        assert seeds == [5]
        assert "paper bound: 0.9%" in capsys.readouterr().out


class TestPolicyCommands:
    def test_check_valid(self, tmp_path, capsys):
        import json

        doc = {
            "channels": [{"id": "metadata", "classes": ["metadata"]}],
            "policies": [{"name": "cap", "channel": "metadata",
                          "schedule": {"type": "constant", "rate": 1000}}],
            "algorithm": {"type": "static", "rate_per_job": 500},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["policy", "check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "StaticPartition" in out

    def test_check_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"channels": [{"id": "c", "ops": ["warp"]}]}')
        assert main(["policy", "check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestExport:
    def test_unsupported_export_warns(self, capsys):
        rc = main(["experiment", "fig2", "--export", "/tmp/nowhere"])
        assert rc == 0
        assert "not supported" in capsys.readouterr().err

    @pytest.mark.parametrize("name, attr", [("fig4", "series"), ("fig5", "job_series")])
    def test_export_writes_one_csv_per_result(
        self, name, attr, monkeypatch, tmp_path, capsys
    ):
        import importlib
        from types import SimpleNamespace

        module = importlib.import_module(f"repro.experiments.{name}")
        series = {"job1": ([0.0, 1.0], [5.0, 6.0])}
        monkeypatch.setattr(
            module,
            "main",
            lambda seed: {"a": SimpleNamespace(**{attr: series}),
                          "b": SimpleNamespace(**{attr: series})},
        )
        assert main(["experiment", name, "--export", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{name}-a.csv", f"{name}-b.csv"
        ]


class TestLintCommand:
    @staticmethod
    def _tree(tmp_path, body: str):
        module = tmp_path / "src" / "repro" / "simulation" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(body)
        return str(module)

    def test_listed_in_help(self, capsys):
        help_text = build_parser().format_help()
        assert "lint" in help_text
        assert "static-analysis" in help_text

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        module = self._tree(tmp_path, "x = 1\n")
        assert main(["lint", module]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        module = self._tree(tmp_path, "import time\nt = time.time()\n")
        assert main(["lint", module]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "time.time" in out

    def test_bad_path_is_usage_error(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "ghost.py")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        import json

        module = self._tree(tmp_path, "import time\nt = time.time()\n")
        assert main(["lint", module, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["active_by_rule"]["DET001"] == 1
        assert doc["findings"][0]["rule"] == "DET001"

    def test_self_lint_of_repo_tree(self, capsys, monkeypatch):
        # The committed tree must gate clean through the real CLI path,
        # from any directory of the checkout.
        from pathlib import Path

        monkeypatch.chdir(Path(__file__).resolve().parents[1] / "src" / "repro")
        assert main(["lint"]) == 0
        # The default paths resolved at the checkout root, not in the cwd.
        scanned = int(capsys.readouterr().out.split(" across ")[1].split()[0])
        assert scanned > 60


class TestSweepCommand:
    def test_invalid_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig9"])

    def test_invalid_jobs_reports_error(self, tmp_path, capsys):
        rc = main(["sweep", "harm", "--quick", "--jobs", "0",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "jobs" in capsys.readouterr().err

    def test_quick_harm_sweep_computes_then_replays(self, tmp_path, capsys):
        args = ["sweep", "harm", "--quick", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "harm:unprotected@seed0" in out
        assert out.count("computed") == 2
        assert main(args) == 0
        assert capsys.readouterr().out.count("cached") == 2


class TestMetricsCommand:
    """The metrics snapshot has one path: ``trace run --out DIR`` writes it
    as ``metrics.prom`` (Prometheus text) and ``metrics.json``."""

    _FAST = ["--duration", "30", "--step-period", "15", "--drain-tail", "10"]

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("snapshot")
        assert main(["trace", "run", *self._FAST, "--seed", "3",
                     "--out", str(out_dir)]) == 0
        return out_dir

    def test_text_snapshot(self, out_dir):
        out = (out_dir / "metrics.prom").read_text()
        assert "# TYPE padll_stage_enforced_ops_total counter" in out
        assert "padll_channel_queue_wait_seconds_bucket" in out
        assert "padll_engine_sim_time_seconds" in out

    def test_json_snapshot(self, out_dir):
        import json

        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["version"] == 1
        names = {metric["name"] for metric in doc["metrics"]}
        assert "padll_mds_served_ops_total" in names
        assert "padll_stage_enforced_ops_total" in names

    def test_json_snapshot_equals_a_metrics_only_run(self, out_dir):
        import json

        from repro.telemetry import run_traced_fig4

        untraced = run_traced_fig4(
            "open", seed=3, duration=30.0, step_period=15.0, drain_tail=10.0,
            sample_rate=0.0, trace=False,
        )
        assert json.loads((out_dir / "metrics.json").read_text()) == untraced.metrics

    def test_invalid_duration_is_config_error(self, capsys):
        rc = main(["trace", "run", "--duration", "-5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_the_metrics_verb_is_gone(self):
        with pytest.raises(SystemExit):
            main(["metrics"])


class TestTraceRunCommand:
    _FAST = ["--duration", "30", "--step-period", "15", "--drain-tail", "10"]

    def test_renders_waterfall_and_timeline(self, capsys):
        rc = main(["trace", "run", *self._FAST, "--sample-rate", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "trace " in out
        assert "stage.submit" in out
        assert "enforcement cycles total" in out

    def test_writes_artifacts(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "artifacts"
        rc = main(["trace", "run", *self._FAST, "--sample-rate", "0.2",
                   "--out", str(out_dir)])
        assert rc == 0
        spans = (out_dir / "spans.jsonl").read_text()
        assert spans
        for line in spans.splitlines():
            json.loads(line)
        assert (out_dir / "events.jsonl").exists()
        assert "# TYPE" in (out_dir / "metrics.prom").read_text()
        assert (out_dir / "metrics.json").exists()

    def test_out_collides_with_file(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("x")
        rc = main(["trace", "run", *self._FAST, "--out", str(target)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_zero_step_period_is_config_error(self, capsys):
        rc = main(["trace", "run", "--target", "open", "--step-period", "0"])
        assert rc == 2
        assert "error: step_period must be > 0, got 0.0" in capsys.readouterr().err

    def test_negative_drain_tail_is_config_error(self, capsys):
        rc = main(["trace", "run", *self._FAST, "--drain-tail", "-3"])
        assert rc == 2
        assert "error: drain_tail must be >= 0, got -3.0" in capsys.readouterr().err


class TestShardedCommand:
    _FAST = [
        "sharded", "--jobs", "4", "--stages-per-job", "2", "--racks", "2",
        "--clients-per-stage", "5", "--duration", "20", "--step-period", "5",
    ]

    def test_digest_only_is_shard_invariant(self, capsys):
        rc = main([*self._FAST, "--shards", "1", "--digest-only"])
        assert rc == 0
        one = capsys.readouterr().out.strip()
        rc = main([*self._FAST, "--shards", "2", "--digest-only"])
        assert rc == 0
        two = capsys.readouterr().out.strip()
        assert one == two
        assert len(one) == 64  # bare sha256 hex, cmp-able by CI

    def test_summary_output(self, capsys):
        rc = main(self._FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 stages" in out
        assert "baseline" in out and "padll" in out
        assert "digest " in out

    def test_invalid_topology_is_config_error(self, capsys):
        rc = main([*self._FAST, "--shards", "9"])
        assert rc == 2
        assert "n_shards" in capsys.readouterr().err

    @pytest.mark.parametrize("period", ["0", "-5"])
    def test_non_positive_step_period_is_config_error(self, capsys, period):
        rc = main([*self._FAST, "--step-period", period])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: step_period must be > 0, got {float(period)}" in err



class TestRefusedInput:
    """main() owns a refused input: one ``error:`` line, exit 2."""

    @pytest.mark.parametrize("text", [None, "{nope"], ids=["missing", "invalid"])
    def test_serve_with_a_bad_config_file(self, tmp_path, capsys, text):
        path = tmp_path / "service.json"
        if text is not None:
            path.write_text(text)
        assert main(["serve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("duration", ["0", "-1"])
    def test_serve_refuses_non_positive_duration(self, capsys, monkeypatch, duration):
        import repro.service

        def refuse(*args, **kwargs):
            raise AssertionError("serve built a runtime for a refused --duration")

        monkeypatch.setattr(repro.service, "ServiceRuntime", refuse)
        monkeypatch.setattr(repro.service, "OperatorServer", refuse)
        assert main(["serve", "--duration", duration]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --duration must be > 0, got {float(duration)}\n"

    def test_stage_host_with_nothing_to_dial_exits_one(self):
        import socket
        import subprocess
        import sys

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "stage-host",
                "--connect", f"127.0.0.1:{port}",
                "--host-id", "host0", "--stages", "job0/s0",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert f"start failed: cannot dial 127.0.0.1:{port}" in result.stdout
        assert "Traceback" not in result.stderr
