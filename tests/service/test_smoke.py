"""End-to-end smokes: the CLI entrypoint and live faults over HTTP.

These are the in-repo versions of the CI ``serve-smoke`` job: boot the
whole service (loop + workload + server), drive it from outside through
nothing but HTTP, and require a clean shutdown with zero surviving
worker threads.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import threading
import time
import types
import urllib.request
from pathlib import Path

from repro.core.config import load_config
from repro.core.fabric import LinkProfile
from repro.core.stage import OrphanPolicy, StageIdentity
from repro.service import OperatorServer, ServiceConfig, ServiceRuntime, WorkloadSpec
from repro.service.stagehost import register_push

EXAMPLE_POLICY = Path(__file__).resolve().parents[2] / "examples" / "padll.json"


def get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read().decode()


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def serve(tmp_path, doc, duration):
    """``padll-repro serve`` on a config document; the completed process."""
    config = tmp_path / "service.json"
    config.write_text(json.dumps({"port": 0, "interval": 0.1, **doc}))
    return subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--config", str(config), "--duration", str(duration),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCliServe:
    def test_serve_runs_and_shuts_down_clean(self, tmp_path):
        result = serve(
            tmp_path,
            {"seed": 5, "sample_rate": 0.2, "workload": {"rate": 80}},
            duration=2,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "padll-repro serve: listening on http://127.0.0.1:" in result.stdout
        assert "clean shutdown: 0 worker thread(s) remaining" in result.stdout

    def test_serve_runs_the_shipped_example_policy(self, tmp_path):
        # examples/padll.json reserves rates for jobs that register later
        # (or never); that used to die with StageNotRegistered at start-up.
        result = serve(
            tmp_path,
            {
                "workload": {"rate": 80},
                "padll": json.loads(EXAMPLE_POLICY.read_text()),
            },
            duration=2,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean shutdown: 0 worker thread(s) remaining" in result.stdout

    def test_example_reservation_applies_once_the_job_registers(self):
        config = ServiceConfig(
            port=0,
            padll=load_config(EXAMPLE_POLICY),
            workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=0.0),
        )
        for stage_procs in (0, 1):  # in-process world, then one awaiting its hosts
            runtime = ServiceRuntime(dataclasses.replace(config, stage_procs=stage_procs))
            try:
                if stage_procs:
                    assert runtime.controller.jobs == {}
                    # A host's registration push, as its reader thread hands it over.
                    runtime._on_wire_push(
                        types.SimpleNamespace(peer="host0"),
                        register_push(StageIdentity("job1/s0", "job1")),
                    )
                reservations = {
                    job: info.reservation for job, info in runtime.controller.jobs.items()
                }
                assert reservations["job1"] == 40_000.0
                assert reservations.get("job0", 0.0) == 0.0  # not in the example
            finally:
                runtime.stop()

    def test_stage_procs_runs_and_shuts_down_clean(self, tmp_path):
        # The default layout: no orphan policy, no policy document.
        result = serve(
            tmp_path,
            {"seed": 5, "workload": {"rate": 80}, "stage_procs": 2},
            duration=5,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("stage(s) registered with") == 2, result.stdout
        assert "clean shutdown: 0 worker thread(s) remaining" in result.stdout

    def test_stage_procs_serves_a_two_channel_layout(self, tmp_path):
        # Was an exit-2 refusal (argv could not carry ``padll.channels``);
        # the hosts fetch the layout from the controller now.
        policy = {
            "channels": [
                {"id": "metadata", "classes": ["metadata", "dir_mgmt"]},
                {"id": "opens", "ops": ["open"], "priority": 10},
            ]
        }
        result = serve(
            tmp_path,
            {"workload": {"rate": 80}, "stage_procs": 2, "padll": policy},
            duration=4,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("stage(s) registered with") == 2, result.stdout
        assert "clean shutdown: 0 worker thread(s) remaining" in result.stdout


class TestLiveFaultsOverHttp:
    def test_orphan_decay_and_readoption_visible_in_events(self):
        config = ServiceConfig(
            port=0,
            interval=0.05,
            seed=21,
            sample_rate=0.0,
            trace=False,
            workload=WorkloadSpec(jobs=1, stages_per_job=1, rate=150.0),
            capacity=100.0,
            # Two of the service's 0.05 s loop intervals.
            orphan=OrphanPolicy(
                orphan_after=2, mode="decay", floor=2.0, half_life=0.05
            ),
        )
        runtime = ServiceRuntime(config)
        runtime.start()
        try:
            with OperatorServer(runtime, "127.0.0.1", 0) as server:
                stage = runtime.stages[0]
                stage_id = stage.identity.stage_id
                # An in-process stage reaches the plane through its job's
                # local, whose address is the job id.
                job_id = stage.identity.job_id
                assert wait_until(
                    lambda: stage.channel_rate(config.channel) != float("inf")
                )

                # Sever the control link; the workload keeps the throttle
                # path hot, so the stage orphans and decays on its own.
                runtime.fabric.set_link(job_id, LinkProfile(loss=1.0))

                def events(kind):
                    _, body = get(
                        server.url + f"/api/v1/events?kind={kind}&job={job_id}"
                    )
                    return [json.loads(line) for line in body.strip().splitlines()]

                assert wait_until(lambda: events("stage.orphaned"))
                assert wait_until(lambda: events("rpc.drop"))
                assert wait_until(
                    lambda: stage.channel_rate(config.channel) == 2.0
                )

                # Heal; re-adoption arrives with the next enforcement.
                runtime.fabric.set_link(job_id, LinkProfile())
                assert wait_until(lambda: events("stage.adopted"))
                adopted = events("stage.adopted")[0]
                assert adopted["fields"] == {"stage": stage_id, "job": "job0"}

                # The snapshot aggregates the same story.
                _, body = get(server.url + "/api/v1/snapshot")
                snapshot = json.loads(body)
                assert snapshot["fabric"]["lost"] > 0
                assert snapshot["control_plane"]["collect_failures"] > 0
        finally:
            runtime.stop()
        time.sleep(0.2)
        workers = [
            thread
            for thread in threading.enumerate()
            if thread is not threading.main_thread()
            and thread.is_alive()
            and thread.name.startswith("padll-")
        ]
        assert workers == []
