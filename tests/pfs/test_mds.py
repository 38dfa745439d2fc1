"""Tests for the metadata server model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, MDSUnavailable
from repro.pfs.costs import op_cost
from repro.pfs.mds import DEGRADE_FACTOR, FAIL_AFTER, MDSConfig, MetadataServer


def mds(capacity=100.0, **kw) -> MetadataServer:
    return MetadataServer(config=MDSConfig(capacity=capacity, **kw))


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"capacity": 0.0},
            {"degrade_after": -1.0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            MDSConfig(**kw)


class TestFluidService:
    def test_serves_up_to_capacity(self):
        m = mds(capacity=100.0, degrade_after=1e9)
        m.offer("getattr", 250.0, 0.0)  # 250 units of work
        assert m.service(0.0, 1.0) == pytest.approx(100.0)
        assert m.service(1.0, 1.0) == pytest.approx(100.0)
        assert m.service(2.0, 1.0) == pytest.approx(50.0)
        assert m.queued_units == 0.0

    def test_cost_weighting(self):
        m = mds(capacity=op_cost("rename") * 10, degrade_after=1e9)
        m.offer("rename", 100.0, 0.0)
        assert m.service(0.0, 1.0) == pytest.approx(10.0)  # 10 renames/s

    def test_fifo_across_kinds(self):
        m = mds(capacity=op_cost("getattr") * 10, degrade_after=1e9)
        m.offer("getattr", 10.0, 0.0)
        m.offer("rename", 10.0, 0.0)
        m.service(0.0, 1.0)
        assert m.served.get("getattr", 0) == pytest.approx(10.0)
        assert m.served.get("rename", 0) == 0.0

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_data_kinds_refused(self, kind):
        # Data ops end at the client; an MDS models metadata only.
        m = mds(capacity=1.0)
        with pytest.raises(ConfigError, match=kind):
            m.offer(kind, 1e6, 0.0)
        assert m.queued_units == 0.0
        assert m.served == {}

    def test_window_counters(self):
        m = mds(capacity=100.0)
        m.offer("getattr", 50.0, 0.0)
        m.service(0.0, 1.0)
        assert m.take_window() == {"getattr": pytest.approx(50.0)}
        assert m.take_window() == {}

    def test_invalid_service_dt(self):
        with pytest.raises(ConfigError):
            mds().service(0.0, 0.0)

    def test_zero_offer_ignored(self):
        m = mds()
        m.offer("getattr", 0.0, 0.0)
        assert m.queued_units == 0.0


class TestDegradationAndFailure:
    def test_degrades_when_queue_deep(self):
        m = mds(capacity=100.0, degrade_after=1.0)
        m.offer("getattr", 500.0, 0.0)
        m.service(0.0, 1.0)
        assert m.degraded
        # Degraded service runs at DEGRADE_FACTOR of capacity.
        served = m.service(1.0, 1.0)
        assert served == pytest.approx(100.0 * DEGRADE_FACTOR)

    def test_recovers_when_queue_drains(self):
        m = mds(capacity=100.0, degrade_after=1.0)
        m.offer("getattr", 300.0, 0.0)
        m.service(0.0, 1.0)
        assert m.degraded
        for t in range(1, 10):
            m.service(float(t), 1.0)
        assert not m.degraded

    def test_fails_after_sustained_degradation(self):
        m = mds(capacity=100.0, degrade_after=0.5)
        for t in range(int(FAIL_AFTER) + 10):
            if m.failed:
                break
            m.offer("getattr", 500.0, float(t))
            m.service(float(t), 1.0)
        assert m.failed
        assert m.failed_at is not None
        assert m.queued_units == 0.0  # queue lost on crash

    def test_cannot_fail_when_disabled(self):
        m = mds(capacity=100.0, degrade_after=0.5, can_fail=False)
        for t in range(int(FAIL_AFTER) + 20):
            m.offer("getattr", 500.0, float(t))
            m.service(float(t), 1.0)
        assert not m.failed

    def test_offer_to_failed_raises(self):
        m = mds()
        m.fail(0.0)
        with pytest.raises(MDSUnavailable):
            m.offer("getattr", 1.0, 0.0)
        assert m.service(1.0, 1.0) == 0.0


# -- conservation property --------------------------------------------------------

offers = st.lists(
    st.tuples(
        st.sampled_from(["getattr", "open", "close", "rename", "mkdir"]),
        st.floats(min_value=0.1, max_value=500.0),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(batches=offers)
def test_work_conserved(batches):
    """offered cost == served cost + queued cost (no MDS failure)."""
    m = mds(capacity=200.0, can_fail=False)
    now = 0.0
    offered_units = 0.0
    for kind, count in batches:
        m.offer(kind, count, now)
        offered_units += op_cost(kind) * count
        m.service(now, 1.0)
        now += 1.0
    served_units = sum(op_cost(k) * c for k, c in m.served.items())
    assert offered_units == pytest.approx(served_units + m.queued_units, rel=1e-6)
