"""Tests for the declarative configuration loader."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.core.algorithms import (
    DominantResourceFairness,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
)
from repro.core.config import load_config, parse_config
from repro.core.controller import ControlPlane
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, StageIdentity


FULL_DOC = {
    "pfs_mounts": ["/lustre"],
    "channels": [
        {"id": "metadata", "classes": ["metadata", "dir_mgmt"]},
        {"id": "opens", "ops": ["open", "creat"], "priority": 10,
         "initial_rate": 500.0},
    ],
    "policies": [
        {"name": "cap-md", "channel": "metadata",
         "schedule": {"type": "constant", "rate": 100000}},
        {"name": "steps", "channel": "opens", "job": "job7",
         "schedule": {"type": "stepped", "period": 360,
                      "rates": [10000, 50000, 20000]}},
    ],
    "algorithm": {"type": "proportional", "capacity": 300000,
                  "reservations": {"job1": 40000}},
}


class TestParse:
    def test_full_document(self):
        config = parse_config(FULL_DOC)
        assert config.pfs_mounts == ("/lustre",)
        assert [c.channel_id for c in config.channels] == ["metadata", "opens"]
        assert [p.name for p in config.policies] == ["cap-md", "steps"]
        assert isinstance(config.algorithm, ProportionalSharing)
        assert config.reservations == {"job1": 40000.0}

    def test_empty_document(self):
        config = parse_config({})
        assert config.channels == []
        assert config.policies == []
        assert config.algorithm is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config({"chanels": []})

    def test_unknown_op(self):
        with pytest.raises(ConfigError, match="unknown op"):
            parse_config({"channels": [{"id": "c", "ops": ["teleport"]}]})

    def test_unknown_class(self):
        with pytest.raises(ConfigError, match="operation class"):
            parse_config({"channels": [{"id": "c", "classes": ["quantum"]}]})

    def test_duplicate_channel(self):
        doc = {"channels": [
            {"id": "c", "ops": ["open"]}, {"id": "c", "ops": ["close"]},
        ]}
        with pytest.raises(ConfigError, match="duplicate channel"):
            parse_config(doc)

    def test_policy_unknown_channel(self):
        doc = {
            "channels": [{"id": "metadata", "classes": ["metadata"]}],
            "policies": [{"name": "p", "channel": "ghost",
                          "schedule": {"type": "constant", "rate": 1}}],
        }
        with pytest.raises(ConfigError, match="unknown channel"):
            parse_config(doc)

    def test_missing_schedule_key(self):
        doc = {"policies": [{"name": "p", "channel": "c",
                             "schedule": {"type": "constant"}}]}
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(doc)

    def test_stepped_with_explicit_steps(self):
        doc = {"policies": [{"name": "p", "channel": "c",
                             "schedule": {"type": "stepped",
                                          "steps": [[0, 10], [60, 20]]}}]}
        config = parse_config(doc)
        assert config.policies[0].rate_at(70.0) == 20.0

    def test_unknown_schedule_type(self):
        doc = {"policies": [{"name": "p", "channel": "c",
                             "schedule": {"type": "sinusoidal"}}]}
        with pytest.raises(ConfigError, match="schedule type"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "algo_doc,expected",
        [
            ({"type": "static", "rate_per_job": 75000}, StaticPartition),
            ({"type": "priority", "rates": {"j1": 40000}}, PriorityPartition),
            ({"type": "proportional", "capacity": 1000}, ProportionalSharing),
            (
                {"type": "drf", "capacities": {"mds": 100},
                 "usages": {"j1": {"mds": 1}}},
                DominantResourceFairness,
            ),
        ],
    )
    def test_algorithm_types(self, algo_doc, expected):
        config = parse_config({"algorithm": algo_doc})
        assert isinstance(config.algorithm, expected)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown type"):
            parse_config({"algorithm": {"type": "roulette"}})


_CAP = {"name": "cap", "channel": "metadata",
        "schedule": {"type": "constant", "rate": 100}}


class TestUnknownNestedKeys:
    """A key no entry knows is refused, naming the entry: a typo must not
    drop a filter or fall back to a default."""

    @pytest.mark.parametrize(
        "doc,where,key",
        [
            # "jbo" for "job": the cap would apply to every job.
            ({"policies": [{**_CAP, "jbo": "job7"}]}, r"policies\[0\]", "jbo"),
            # "path" for "paths": the channel would lose its path filter.
            ({"channels": [{"id": "c", "ops": ["open"], "path": ["/x"]}]},
             r"channels\[0\]", "path"),
            ({"policies": [{**_CAP, "schedule": {"type": "constant", "rate": 1,
                                                 "period": 60}}]},
             r"policies\[0\] schedule", "period"),
            ({"algorithm": {"type": "proportional", "capacity": 10,
                            "headrom": 2.0}}, "algorithm", "headrom"),
            ({"algorithm": {"type": "proportional", "capacity": 10,
                            "reservation": {"j1": 1}}}, "algorithm", "reservation"),
            # A key of another algorithm type is unknown to this one.
            ({"algorithm": {"type": "static", "rate_per_job": 1,
                            "capacity": 10}}, "algorithm", "capacity"),
        ],
        ids=["policy", "channel", "schedule", "algorithm-typo",
             "algorithm-reservation", "algorithm-other-type"],
    )
    def test_refused_naming_the_entry(self, doc, where, key):
        with pytest.raises(ConfigError, match=rf"{where}: unknown keys \['{key}'\]"):
            parse_config(doc)

    def test_every_documented_key_parses(self):
        doc = {
            "channels": [{"id": "metadata", "ops": ["open"], "classes": ["metadata"],
                          "paths": ["/x"], "jobs": ["j1"], "rule_name": "r",
                          "priority": 1, "initial_rate": 5.0}],
            "policies": [{**_CAP, "job": "j1", "burst": 2.0, "priority": 3,
                          "enabled": False}],
            "algorithm": {"type": "priority", "rates": {"j1": 1.0}, "default": 2.0,
                          "reservations": {"j1": 1.0}},
        }
        config = parse_config(doc)
        assert config.policies[0].scope.job_id == "j1"
        assert config.channels[0].rule.path_prefixes == ("/x",)

    def test_an_entry_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"channels\[0\] must be an object"):
            parse_config({"channels": ["metadata"]})


class TestApply:
    def test_apply_to_stage_and_controller(self):
        config = parse_config(FULL_DOC)
        stage = DataPlaneStage(StageIdentity("s0", "job7"), lambda r: None)
        for spec in config.channels:
            spec.apply(stage)
        assert set(stage.channels) == {"metadata", "opens"}
        assert stage.channel_rate("opens") == 500.0
        # Priority 10 rule wins: opens route to the "opens" channel.
        decision = stage.classifier.classify(
            Request(OperationType.OPEN, path="/f")
        )
        assert decision.channel_id == "opens"
        controller = ControlPlane()
        config.install_on(controller)
        assert set(controller.policies) == {"cap-md", "steps"}
        assert controller.algorithm is config.algorithm
        # Reservations land with the rest of the document.
        controller.register(DataPlaneStage(StageIdentity("s1", "job1"), lambda r: 0))
        assert controller.jobs["job1"].reservation == 40000.0

    def test_end_to_end_enforcement(self):
        config = parse_config(FULL_DOC)
        stage = DataPlaneStage(StageIdentity("s0", "job7"), lambda r: None)
        for spec in config.channels:
            spec.apply(stage)
        controller = ControlPlane()
        controller.register(stage)
        config.install_on(controller)
        controller.algorithm = None  # policies only for this check
        controller.tick(0.0)
        assert stage.channel_rate("metadata") == 100000.0
        assert stage.channel_rate("opens") == 10000.0
        controller.tick(400.0)
        assert stage.channel_rate("opens") == 50000.0


class TestLoad:
    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "padll.json"
        path.write_text(json.dumps(FULL_DOC))
        config = load_config(path)
        assert len(config.channels) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "ghost.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestShippedExample:
    def test_examples_padll_json_is_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / "padll.json"
        config = load_config(path)
        assert config.pfs_mounts == ("/lustre",)
        assert len(config.channels) == 3
        assert len(config.policies) == 3
        assert isinstance(config.algorithm, ProportionalSharing)
        assert sum(config.reservations.values()) == 300000.0
        # The whole document applies cleanly to a fresh stage.
        stage = DataPlaneStage(StageIdentity("s0", "job1337"), lambda r: None)
        for spec in config.channels:
            spec.apply(stage)
        assert set(stage.channels) == {"metadata", "opens", "scratch-foo"}
        # Priority 20 path rule beats the op rules for its subtree.
        decision = stage.classifier.classify(
            Request(OperationType.OPEN, path="/lustre/scratch/foo/x")
        )
        assert decision.channel_id == "scratch-foo"
