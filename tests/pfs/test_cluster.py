"""Tests for the cluster wiring, client routing and MDS failover."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.requests import OperationType, Request
from repro.pfs.cluster import FAILOVER_DELAY, ClusterConfig, LustreCluster
from repro.pfs.mds import MDSConfig


def small_cluster(**kw) -> LustreCluster:
    defaults = dict(
        n_mds=2,
        mds=MDSConfig(capacity=1000.0),
    )
    defaults.update(kw)
    return LustreCluster(ClusterConfig(**defaults))


class TestConfig:
    @pytest.mark.parametrize(
        "kw", [{"n_mds": 0}]
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            small_cluster(**kw)


class TestRouting:
    def test_metadata_to_mds(self):
        cluster = small_cluster()
        client = cluster.new_client()
        client.submit(Request(OperationType.OPEN, path="/f", count=10.0))
        assert cluster.mds_servers[0].queued_units > 0

    @pytest.mark.parametrize("op", [OperationType.READ, OperationType.WRITE])
    def test_data_ops_stay_at_the_client(self, op):
        cluster = small_cluster()
        client = cluster.new_client()
        client.submit(Request(op, path="/f", count=4.0))
        assert cluster.mds_servers[0].queued_units == 0.0
        assert client.submitted_ops == 4.0

    def test_client_local_ops_stay_local(self):
        cluster = small_cluster()
        client = cluster.new_client()
        client.submit(Request(OperationType.LSEEK, path="/f", count=5.0))
        assert cluster.mds_servers[0].queued_units == 0.0
        assert client.submitted_ops == 5.0

    def test_service_counts_metadata_only(self):
        cluster = small_cluster()
        client = cluster.new_client()
        client.submit(Request(OperationType.STAT, path="/f", count=100.0))
        client.submit(Request(OperationType.WRITE, path="/f", count=1.0))
        served = cluster.service(0.0, 1.0)
        assert served == pytest.approx(100.0)
        assert cluster.mds_servers[0].served == {"getattr": pytest.approx(100.0)}


class TestFailover:
    def test_standby_takes_over_after_delay(self):
        cluster = small_cluster()
        cluster.mds_servers[0].fail(10.0)
        assert cluster.active_mds(10.0) is None  # failover in progress
        assert cluster.active_mds(9.0 + FAILOVER_DELAY) is None
        active = cluster.active_mds(10.0 + FAILOVER_DELAY)
        assert active is cluster.mds_servers[1]
        assert cluster.failovers == 1

    def test_no_replica_left(self):
        cluster = small_cluster()
        for server in cluster.mds_servers:
            server.fail(0.0)
        assert cluster.active_mds(100.0) is None

    def test_client_counts_failed_ops(self):
        cluster = small_cluster()
        client = cluster.new_client()
        for server in cluster.mds_servers:
            server.fail(0.0)
        client.submit(Request(OperationType.OPEN, path="/f", count=3.0))
        assert client.failed_ops == 3.0

    def test_client_reports_failed_ops_to_telemetry(self):
        from repro.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig())
        cluster = small_cluster()
        client = cluster.new_client()
        client.attach_telemetry(telemetry)
        for server in cluster.mds_servers:
            server.fail(0.0)
        client.submit(Request(OperationType.OPEN, path="/f", count=3.0))
        (event,) = telemetry.events.of_kind("client.mds_unavailable")
        assert event.fields == {"client": client.name, "kind": "open", "count": 3.0}
        counter = telemetry.registry.counter(
            "padll_client_failed_ops_total", client=client.name
        )
        assert counter.value == 3.0

    def test_clock_propagates_to_clients(self):
        cluster = small_cluster()
        client = cluster.new_client()
        t = [0.0]
        cluster.set_clock(lambda: t[0])
        t[0] = 42.0
        client.submit(Request(OperationType.OPEN, path="/f"))
        # The offer landed at the simulated time, visible in latency math:
        assert cluster.mds_servers[0]._queue[0][3] == 42.0  # [slot, count, cost, arrived]


class TestDNE:
    """Distributed-namespace mode: every MDS active, sharded by top dir."""

    def _dne(self, n_mds=3):
        return small_cluster(n_mds=n_mds, mds_mode="dne")

    def test_routing_is_path_stable(self):
        cluster = self._dne()
        a = cluster.mds_for_path("/projA/file1", 0.0)
        b = cluster.mds_for_path("/projA/deep/tree/file2", 0.0)
        assert a is b  # same top-level directory -> same shard

    def test_shards_distribute_across_servers(self):
        cluster = self._dne(n_mds=3)
        owners = {
            cluster.mds_for_path(f"/proj{i}/x", 0.0).name for i in range(40)
        }
        assert len(owners) >= 2

    def test_aggregate_capacity_scales(self):
        cluster = self._dne(n_mds=3)
        client = cluster.new_client()
        # Load every shard beyond one server's 1-second capacity.
        for i in range(40):
            client.submit(
                Request(OperationType.STAT, path=f"/proj{i}/f", count=100.0)
            )
        served = cluster.service(0.0, 1.0)
        # One MDS serves 1000 getattr/s; three active shards serve up to 3000.
        assert served > 1000.0

    def test_failed_shard_offline_without_standby(self):
        cluster = self._dne(n_mds=2)
        client = cluster.new_client()
        victim = cluster.mds_for_path("/projX/f", 0.0)
        victim.fail(0.0)
        assert cluster.mds_for_path("/projX/f", 100.0) is None
        client.submit(Request(OperationType.STAT, path="/projX/f", count=5.0))
        assert client.failed_ops == 5.0
        # Other shards keep serving.
        other = next(
            p for p in ("/a", "/b", "/c", "/d")
            if cluster.mds_for_path(p, 0.0) is not None
        )
        client.submit(Request(OperationType.STAT, path=other + "/f"))
        assert client.failed_ops == 5.0

    def test_hot_standby_ignores_path(self):
        cluster = small_cluster()
        a = cluster.mds_for_path("/x/f", 0.0)
        b = cluster.mds_for_path("/y/f", 0.0)
        assert a is b is cluster.active_mds(0.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            small_cluster(mds_mode="quantum")


class TestReplayBuffer:
    def test_outage_ops_replayed_at_takeover(self):
        cluster = small_cluster()
        client = cluster.new_client()
        cluster.mds_servers[0].fail(0.0)
        client.submit(Request(OperationType.STAT, path="/f", count=100.0))
        assert cluster.pending_replay_ops == 100.0
        # Standby not yet up: nothing flushed.
        cluster.service(2.0, 1.0)
        assert cluster.pending_replay_ops == 100.0
        # After the failover delay the backlog reaches the standby.
        served = cluster.service(FAILOVER_DELAY + 1.0, 1.0)
        assert cluster.pending_replay_ops == 0.0
        assert cluster.replayed_ops == 100.0
        assert served > 0

    def test_replay_held_while_no_replica_alive(self):
        cluster = small_cluster()
        client = cluster.new_client()
        cluster.mds_servers[0].fail(0.0)
        client.submit(Request(OperationType.STAT, path="/f", count=10.0))
        assert cluster.pending_replay_ops == 10.0
        # The standby dies before its takeover completes.
        cluster.mds_servers[1].fail(1.0)
        cluster.service(FAILOVER_DELAY + 1.0, 1.0)  # nobody alive: buffer stays
        assert cluster.pending_replay_ops == 10.0
