"""Tests for the IOR-like data workload."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.requests import OperationType
from repro.pfs import PFS_MOUNT
from repro.workloads import ior
from repro.workloads.ior import IORConfig, IORDriver, IORWorkload


class TestConfig:
    def test_derived_quantities(self):
        assert IORConfig().offered_iops == ior.N_PROCS * ior.IOPS_PER_PROC

    @pytest.mark.parametrize("kw", [{"mode": "scan"}])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            IORConfig(**kw)


class TestWorkload:
    def test_rate_matches_offered_iops(self, monkeypatch):
        monkeypatch.setattr(ior, "NOISE_SIGMA", 0.0)
        wl = IORWorkload(IORConfig())
        assert wl.demand(1.0) == pytest.approx(IORConfig().offered_iops)

    def test_noise_determinism(self):
        a = IORWorkload(IORConfig(seed=3))
        b = IORWorkload(IORConfig(seed=3))
        assert [a.demand(1.0) for _ in range(5)] == [b.demand(1.0) for _ in range(5)]

    def test_invalid_dt(self):
        with pytest.raises(ConfigError):
            IORWorkload(IORConfig()).demand(0.0)


class TestDriver:
    def test_submits_every_tick(self, env):
        received = []
        IORDriver(env, IORWorkload(IORConfig()), received.append)
        env.run(until=9.5)
        assert len(received) == 10  # t = 0 .. 9, no end
        for req in received:
            assert req.op is OperationType.WRITE
            assert req.job_id == ior.JOB_ID
            assert req.path.startswith(f"{PFS_MOUNT}/{ior.JOB_ID}/")

    def test_read_mode(self, env):
        received = []
        IORDriver(env, IORWorkload(IORConfig(mode="read")), received.append)
        env.run(until=1.5)
        assert received
        assert all(r.op is OperationType.READ for r in received)
