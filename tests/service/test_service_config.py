"""Tests for the operator service configuration loader."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.core.algorithms import ProportionalSharing
from repro.core.fabric import LinkProfile
from repro.core.stage import OrphanPolicy
from repro.service.config import (
    ServiceConfig,
    WorkloadSpec,
    load_service_config,
    parse_service_config,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSpecs:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 9178
        assert config.workload.n_stages == 4
        assert config.faults == LinkProfile()
        assert config.padll is None

    def test_staleness_threshold_derives_from_interval(self):
        assert ServiceConfig(interval=1.0).staleness_threshold == 5.0
        assert ServiceConfig(interval=0.1).staleness_threshold == 2.0
        assert ServiceConfig(stale_after=9.0).staleness_threshold == 9.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"interval": 0.0},
            {"sample_rate": 1.5},
            {"capacity": 0.0},
            {"channel": ""},
            {"audit_capacity": 0},
            {"stale_after": 0.0},
        ],
    )
    def test_invalid_service_config(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"jobs": 0}, {"stages_per_job": 0}, {"rate": -1.0}, {"ops": ()}],
    )
    def test_invalid_workload(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"loss": 1.5}, {"latency": -1.0}, {"jitter": -0.1}]
    )
    def test_invalid_faults(self, kwargs):
        with pytest.raises(ConfigError):
            parse_service_config({"faults": kwargs})

    def test_faults_is_the_fabric_link_profile(self):
        # The same three keys, parsed to the same values, handed whole to
        # the fabric.
        config = parse_service_config(
            {"faults": {"loss": 0.05, "latency": 0.002, "jitter": 0.003}}
        )
        assert config.faults == LinkProfile(latency=0.002, jitter=0.003, loss=0.05)
        assert parse_service_config({"faults": {"loss": 1}}).faults.loss == 1.0


class TestParse:
    def test_full_document(self):
        config = parse_service_config(
            {
                "host": "0.0.0.0",
                "port": 9999,
                "interval": 0.5,
                "seed": 42,
                "sample_rate": 0.25,
                "trace": False,
                "capacity": 1234.0,
                "workload": {"jobs": 3, "stages_per_job": 1, "rate": 10.0},
                "faults": {"loss": 0.1, "latency": 0.01},
                "orphan": {"mode": "decay", "orphan_after": 2, "floor": 3.0},
                "padll": {
                    "channels": [{"id": "metadata", "classes": ["metadata"]}],
                    "algorithm": {"type": "proportional", "capacity": 500},
                },
            }
        )
        assert config.port == 9999
        assert config.workload.jobs == 3
        assert config.faults.loss == 0.1
        assert config.orphan is not None and config.orphan.mode == "decay"
        assert config.orphan.orphan_after == 2
        assert isinstance(config.padll.algorithm, ProportionalSharing)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown service config keys"):
            parse_service_config({"prot": 1})

    @pytest.mark.parametrize(
        "doc, level",
        [
            ({"workload": {"job": 3}}, "'workload'"),
            ({"faults": {"los": 0.5}}, "'faults'"),
            ({"orphan": {"after": 7}}, "'orphan'"),
            ({"padll": {"channel": []}}, "top-level"),
            # The period is the service's ``interval``, stated once.
            ({"orphan": {"interval": 0.25}}, "'orphan'"),
        ],
    )
    def test_unknown_nested_keys_rejected(self, doc, level):
        # A typo below the top level used to run the default silently.
        with pytest.raises(ConfigError, match=f"unknown .*{level}.* keys"):
            parse_service_config(doc)

    def test_defaults_come_from_the_dataclasses(self):
        assert parse_service_config({}) == ServiceConfig()
        config = parse_service_config(
            {"workload": {}, "faults": {}, "orphan": {}, "padll": None}
        )
        assert config == dataclasses.replace(ServiceConfig(), orphan=OrphanPolicy())
        assert parse_service_config({"orphan": None}).orphan is None

    def test_lists_become_tuples_and_types_are_checked(self):
        config = parse_service_config({"workload": {"ops": ["open", "stat"]}})
        assert config.workload.ops == ("open", "stat")
        assert parse_service_config({"interval": 1}).interval == 1.0
        for doc in (
            {"port": "9178"},
            {"workload": {"ops": "open"}},
            {"faults": 3},
            {"workload": None},  # null means "none" only where None is a value
        ):
            with pytest.raises(ConfigError):
                parse_service_config(doc)

    def test_documented_examples_load(self):
        # Every JSON block in docs/SERVICE.md that is a service document
        # (it names a listener or a workload) must parse as written.
        text = (REPO_ROOT / "docs" / "SERVICE.md").read_text()
        docs = [
            doc
            for doc in map(json.loads, re.findall(r"```json\n(.*?)```", text, re.S))
            if "port" in doc or "workload" in doc
        ]
        assert docs
        for doc in docs:
            config = parse_service_config(doc)
            assert config.padll is None
            assert config.orphan == OrphanPolicy(
                orphan_after=3, mode="decay", floor=10.0, half_life=1.0
            )

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_service_config([1, 2, 3])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "service.json"
        path.write_text(json.dumps({"port": 0, "interval": 0.1}))
        config = load_service_config(path)
        assert config.port == 0
        assert config.interval == 0.1

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid service config JSON"):
            load_service_config(path)


class TestMultiProcessKeys:
    def test_defaults_stay_in_process(self):
        config = ServiceConfig()
        assert config.stage_procs == 0
        assert config.control_host == "127.0.0.1"
        assert config.control_port == 0
        assert config.admin_token is None
        assert config.audit_dir is None
        assert config.audit_rotate_bytes == 1_000_000

    def test_parse_round_trip(self):
        config = parse_service_config(
            {
                "port": 0,
                "stage_procs": 3,
                "control_host": "0.0.0.0",
                "control_port": 9180,
                "admin_token": "hunter2",
                "audit_dir": "/var/lib/padll",
                "audit_rotate_bytes": 4096,
            }
        )
        assert config.stage_procs == 3
        assert config.control_host == "0.0.0.0"
        assert config.control_port == 9180
        assert config.admin_token == "hunter2"
        assert config.audit_dir == "/var/lib/padll"
        assert config.audit_rotate_bytes == 4096

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stage_procs": -1},
            {"control_host": ""},
            {"control_port": -1},
            {"control_port": 70000},
            {"admin_token": ""},
            {"audit_rotate_bytes": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(port=0, **kwargs)
