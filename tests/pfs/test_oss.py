"""Tests for the object storage pool (OSS/OST data path)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pfs.oss import ObjectStoragePool, OSTarget


def pool(**kw) -> ObjectStoragePool:
    defaults = dict(n_oss=2, n_ost=4, ost_capacity_bytes=1000, oss_bandwidth=100.0)
    defaults.update(kw)
    return ObjectStoragePool(**defaults)


class TestConstruction:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_oss": 0},
            {"n_ost": 0},
            {"n_ost": 1, "n_oss": 2},
            {"oss_bandwidth": 0.0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            pool(**kw)

    def test_ost_capacity_positive(self):
        with pytest.raises(ConfigError):
            OSTarget(index=0, capacity_bytes=0)


class TestFluidService:
    def test_bandwidth_bound(self):
        p = pool()  # 2 OSS * 100 B/s
        p.offer("write", 1000.0, 0.0)
        assert p.service(0.0, 1.0) == pytest.approx(200.0)
        assert p.queued_bytes == pytest.approx(800.0)

    def test_fifo_mixed_kinds(self):
        p = pool()
        p.offer("read", 150.0, 0.0)
        p.offer("write", 150.0, 0.0)
        p.service(0.0, 1.0)
        assert p.served_bytes["read"] == pytest.approx(150.0)
        assert p.served_bytes["write"] == pytest.approx(50.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            pool().offer("scan", 1.0, 0.0)

    def test_windows(self):
        p = pool()
        p.offer("read", 100.0, 0.0)
        p.service(0.0, 1.0)
        window = p.take_window()
        assert window["read"] == pytest.approx(100.0)
        assert p.take_window() == {"read": 0.0, "write": 0.0}

    def test_conservation(self):
        p = pool()
        total = 0.0
        for t in range(10):
            p.offer("write", 37.0, float(t))
            total += 37.0
            p.service(float(t), 1.0)
        assert p.served_bytes["write"] + p.queued_bytes == pytest.approx(total)

    def test_invalid_dt(self):
        with pytest.raises(ConfigError):
            pool().service(0.0, 0.0)
