"""Tests for the DL-training workload model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.requests import OperationType
from repro.workloads.dltraining import (
    DLTrainingConfig,
    DLTrainingDriver,
    DLTrainingWorkload,
)


def small_config(**kw) -> DLTrainingConfig:
    defaults = dict(
        n_files=1000,
        epochs=2,
        samples_per_sec=100.0,
        index_rate=500.0,
        seed=1,
    )
    defaults.update(kw)
    return DLTrainingConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_files": 0},
            {"epochs": 0},
            {"samples_per_sec": 0.0},
            {"index_rate": 0.0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    def test_durations(self):
        config = small_config()
        assert config.index_duration == pytest.approx(2.0)
        assert config.consume_duration == pytest.approx(10.0)
        assert config.epoch_duration == pytest.approx(12.0)
        assert config.total_duration == pytest.approx(24.0)


class TestFluidDemand:
    def test_phases(self):
        wl = DLTrainingWorkload(small_config())
        # During the indexing burst: only getattrs, at the index rate.
        d = wl.demand(0.5, 1.0)
        assert d["getattr"] == pytest.approx(500.0)
        assert d["open"] == 0.0
        # During consumption: open/read/close at the sample rate.
        d = wl.demand(5.0, 1.0)
        assert d["getattr"] == 0.0
        assert d["open"] == pytest.approx(100.0)
        assert d["read"] == pytest.approx(100.0)
        assert d["close"] == pytest.approx(100.0)

    def test_totals_conserved_any_tick(self):
        wl = DLTrainingWorkload(small_config())
        for dt in (0.3, 1.0, 2.5):
            totals = {"getattr": 0.0, "open": 0.0, "close": 0.0, "read": 0.0}
            t = 0.0
            while t < wl.config.total_duration:
                for kind, count in wl.demand(t, dt).items():
                    totals[kind] += count
                t += dt
            for kind, expected in wl.total_ops().items():
                assert totals[kind] == pytest.approx(expected, rel=1e-9), (dt, kind)

    def test_metadata_burst_dominates_index_phase(self):
        """The paper's claim: epoch starts generate metadata storms far
        above the steady-state rate."""
        wl = DLTrainingWorkload(small_config())
        burst = sum(wl.demand(0.5, 1.0).values())
        steady = sum(
            v for k, v in wl.demand(5.0, 1.0).items() if k != "read"
        )
        assert burst > 2 * steady


class TestDiscreteOps:
    def test_epoch_sequence_shape(self):
        wl = DLTrainingWorkload(small_config(n_files=50))
        ops = list(wl.epoch_ops(0))
        assert len(ops) == 50 + 3 * 50
        assert all(op is OperationType.STAT for op, _ in ops[:50])
        opens = [p for op, p in ops if op is OperationType.OPEN]
        assert len(set(opens)) == 50  # every file read exactly once

    def test_shuffle_differs_per_epoch_but_deterministic(self):
        wl = DLTrainingWorkload(small_config(n_files=64))
        e0 = [p for op, p in wl.epoch_ops(0) if op is OperationType.OPEN]
        e1 = [p for op, p in wl.epoch_ops(1) if op is OperationType.OPEN]
        assert e0 != e1
        again = [p for op, p in wl.epoch_ops(0) if op is OperationType.OPEN]
        assert e0 == again

    def test_epoch_bounds(self):
        wl = DLTrainingWorkload(small_config())
        with pytest.raises(ConfigError):
            list(wl.epoch_ops(99))


class TestDriver:
    def test_runs_to_completion(self, env):
        wl = DLTrainingWorkload(small_config())
        received = []
        driver = DLTrainingDriver(env, wl, received.append, job_id="dl1")
        env.run(until=30.0)
        assert driver.finished
        for kind, expected in wl.total_ops().items():
            assert driver.submitted[kind] == pytest.approx(expected, rel=1e-9)

    def test_through_padll_stage(self, env):
        """The motivating scenario: PADLL tames the indexing storm."""
        from repro.core.differentiation import ClassifierRule
        from repro.core.requests import OperationClass
        from repro.core.stage import DataPlaneStage, StageIdentity
        from repro.simulation.ticker import Ticker

        delivered = []
        stage = DataPlaneStage(StageIdentity("s0", "dl1"), delivered.append)
        stage.create_channel("metadata", rate=200.0)
        stage.add_classifier_rule(
            ClassifierRule(
                "md",
                "metadata",
                op_classes=frozenset({OperationClass.METADATA}),
            )
        )
        wl = DLTrainingWorkload(small_config())
        DLTrainingDriver(env, wl, lambda r: stage.submit(r, env.now))
        Ticker(env, 1.0, lambda now: stage.drain(now), defer=1)
        env.run(until=5.0)
        md = sum(
            r.count for r in delivered
            if r.op is not OperationType.READ
        )
        # The 500/s indexing storm is capped at ~200/s (+ initial burst).
        assert md <= 200.0 * 5 + 200.0 + 1e-6
