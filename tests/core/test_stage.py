"""Tests for the data-plane stage."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.interpose.live_stage import LiveStage


def make_stage(sink=None, pfs_mounts=None):
    sunk = []
    stage = DataPlaneStage(
        StageIdentity("s0", "job0", hostname="n0", pid=7, user="alice"),
        sink or sunk.append,
        pfs_mounts,
    )
    stage._test_sunk = sunk  # type: ignore[attr-defined]
    return stage


def md_rule(channel="metadata"):
    return ClassifierRule(
        name=f"{channel}-rule",
        channel_id=channel,
        op_classes=frozenset({OperationClass.METADATA}),
    )


class TestIdentity:
    def test_requires_ids(self):
        with pytest.raises(ConfigError):
            StageIdentity("", "job0")
        with pytest.raises(ConfigError):
            StageIdentity("s0", "")


class TestChannels:
    def test_create_and_duplicate(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=5.0)
        with pytest.raises(ConfigError, match="already exists"):
            stage.create_channel("metadata")

    def test_rule_requires_existing_channel(self):
        stage = make_stage()
        with pytest.raises(ConfigError, match="unknown channel"):
            stage.add_classifier_rule(md_rule())

    def test_remove_channel_refuses_backlog(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=1.0)
        stage.add_classifier_rule(md_rule())
        stage.submit(Request(OperationType.OPEN, path="/f"), 0.0)
        with pytest.raises(ConfigError, match="queued"):
            stage.remove_channel("metadata")
        stage.drain(0.0)
        stage.remove_classifier_rule("metadata-rule")
        stage.remove_channel("metadata")
        assert "metadata" not in stage.channels

    @pytest.mark.parametrize(
        "factory",
        [make_stage, lambda: LiveStage(StageIdentity("s0", "job0"))],
        ids=["sim", "live"],
    )
    def test_remove_channel_refuses_routed_rule(self, factory):
        # A rule left pointing at a removed channel would raise on the
        # data path of the next matching request.
        stage = factory()
        stage.create_channel("metadata")
        stage.add_classifier_rule(md_rule())
        with pytest.raises(ConfigError, match="'metadata-rule'"):
            stage.remove_channel("metadata")
        assert "metadata" in stage.channels
        stage.remove_classifier_rule("metadata-rule")
        stage.remove_channel("metadata")
        assert "metadata" not in stage.channels

    def test_set_rate_unknown_channel(self):
        stage = make_stage()
        with pytest.raises(ConfigError, match="no channel"):
            stage.set_channel_rate("nope", 1.0, 0.0)


class TestDataPath:
    def test_enforced_request_queues_until_drain(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=2.0)
        stage.add_classifier_rule(md_rule())
        for _ in range(6):
            stage.submit(Request(OperationType.OPEN, path="/f"), 0.0)
        assert stage._test_sunk == []  # type: ignore[attr-defined]
        assert stage.drain(0.0) == pytest.approx(2.0)
        assert sum(r.count for r in stage._test_sunk) == pytest.approx(2.0)  # type: ignore[attr-defined]

    def test_passthrough_goes_straight_to_sink(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=1.0)
        stage.add_classifier_rule(md_rule())
        decision = stage.submit(Request(OperationType.READ, path="/f"), 0.0)
        assert not decision.enforced
        assert stage.passthrough_total == 1.0
        assert len(stage._test_sunk) == 1  # type: ignore[attr-defined]

    def test_job_id_stamped_from_identity(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=1.0)
        stage.add_classifier_rule(md_rule())
        req = Request(OperationType.READ, path="/f")
        stage.submit(req, 0.0)
        assert req.job_id == "job0"

    def test_mount_differentiation(self):
        stage = make_stage(pfs_mounts=("/pfs",))
        stage.create_channel("metadata", rate=0.001)
        stage.add_classifier_rule(md_rule())
        stage.submit(Request(OperationType.OPEN, path="/tmp/f"), 0.0)
        assert stage.passthrough_total == 1.0  # not under /pfs
        stage.submit(Request(OperationType.OPEN, path="/pfs/f"), 0.0)
        assert stage.backlog() == 1.0

    def test_drain_aggregate_limit(self):
        # The aggregate grant is bounded by the channels' own buckets.
        stage = make_stage()
        stage.create_channel("a", rate=10.0)
        stage.create_channel("b", rate=20.0)
        stage.add_classifier_rule(
            ClassifierRule(name="ra", channel_id="a",
                           op_types=frozenset({OperationType.OPEN}))
        )
        stage.add_classifier_rule(
            ClassifierRule(name="rb", channel_id="b",
                           op_types=frozenset({OperationType.CLOSE}))
        )
        stage.submit(Request(OperationType.OPEN, path="/f", count=50.0), 0.0)
        stage.submit(Request(OperationType.CLOSE, path="/f", count=50.0), 0.0)
        assert stage.drain(0.0) == pytest.approx(30.0)
        assert stage.backlog() == pytest.approx(70.0)
        assert stage.backlog("a") == pytest.approx(40.0)

    def test_multi_channel_isolation(self):
        stage = make_stage()
        stage.create_channel("opens", rate=1.0)
        stage.create_channel("closes", rate=100.0)
        stage.add_classifier_rule(
            ClassifierRule(name="ro", channel_id="opens",
                           op_types=frozenset({OperationType.OPEN}))
        )
        stage.add_classifier_rule(
            ClassifierRule(name="rc", channel_id="closes",
                           op_types=frozenset({OperationType.CLOSE}))
        )
        stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), 0.0)
        stage.submit(Request(OperationType.CLOSE, path="/f", count=10.0), 0.0)
        stage.drain(0.0)
        assert stage.backlog("opens") == pytest.approx(9.0)
        assert stage.backlog("closes") == 0.0


class TestCollect:
    def test_window_semantics(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=4.0)
        stage.add_classifier_rule(md_rule())
        stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), 0.0)
        stage.submit(Request(OperationType.READ, path="/f", count=3.0), 0.0)
        stage.drain(0.0)
        stats = stage.collect(2.0)
        assert stats.job_id == "job0"
        assert stats.window == 2.0
        assert stage.passthrough_total == 3.0
        snap = stats.channels[0]
        assert snap.channel_id == "metadata"
        assert snap.enqueued_ops == 10.0
        assert snap.granted_ops == pytest.approx(4.0)
        assert snap.backlog == pytest.approx(6.0)
        assert snap.rate_limit == 4.0
        # Window resets.
        stats2 = stage.collect(4.0)
        assert stats2.channels[0].enqueued_ops == 0.0

    def test_first_window_opens_when_the_stage_starts(self):
        stage = DataPlaneStage(StageIdentity("s0", "job0"), lambda r: None, now=90.0)
        stage.create_channel("metadata", rate=4.0, now=90.0)
        stage.add_classifier_rule(md_rule())
        stage.submit(Request(OperationType.OPEN, path="/f", count=6.0), 90.0)
        stats = stage.collect(92.0)
        assert stats.window == 2.0
        assert stats.demand_rate("metadata") == 3.0

    def test_rate_helpers(self):
        stage = make_stage()
        stage.create_channel("metadata", rate=4.0)
        stage.add_classifier_rule(md_rule())
        stage.submit(Request(OperationType.OPEN, path="/f", count=8.0), 0.0)
        stage.drain(0.0)
        stats = stage.collect(2.0)
        assert stats.demand_rate("metadata") == pytest.approx(4.0)
        assert stats.granted_rate("metadata") == pytest.approx(2.0)
        assert stats.channels[0].backlog == pytest.approx(4.0)

