"""Extension bench: DNE (sharded namespace) vs hot-standby metadata service.

Section II notes that large deployments shard the namespace across
active MDSs.  This bench measures the trade-off our cluster model
captures: aggregate metadata capacity scales with the shard count, while
a failed shard takes only its subtree offline (smaller blast radius than
a hot-standby outage window, but no replica to recover it).
"""

from __future__ import annotations

import pytest
from conftest import print_header

from repro.core.requests import OperationType, Request
from repro.pfs.cluster import ClusterConfig, LustreCluster
from repro.pfs.mds import MDSConfig

PER_MDS_CAPACITY = 100_000.0  # getattr/s per server
N_PROJECTS = 48


def drive(cluster: LustreCluster, seconds: int = 20, rate_per_project: float = 20_000.0):
    """Offer a uniform getattr load over many project directories."""
    client = cluster.new_client()
    served = 0.0
    for t in range(seconds):
        for p in range(N_PROJECTS):
            client.submit(
                Request(
                    OperationType.STAT,
                    path=f"/proj{p}/f",
                    count=rate_per_project / N_PROJECTS,
                )
            )
        served += cluster.service(float(t), 1.0)
    return served / seconds, client


def make_cluster(mode: str, n_mds: int) -> LustreCluster:
    return LustreCluster(
        ClusterConfig(
            n_mds=n_mds,
            mds=MDSConfig(capacity=PER_MDS_CAPACITY, can_fail=False,
                          degrade_after=1e9),
            mds_mode=mode,
        )
    )


def test_dne_capacity_scales_with_shards(once):
    def sweep():
        out = {}
        for n_mds in (1, 2, 4):
            cluster = make_cluster("dne", n_mds)
            # 2.4x overload per shard: every run is saturated, so the
            # served rate measures capacity, not demand.
            rate, _ = drive(cluster, rate_per_project=240_000.0 * n_mds)
            out[n_mds] = rate
        # Hot-standby baseline: extra servers are replicas, not capacity.
        hot = make_cluster("hot-standby", 2)
        out["hot-standby x2"] = drive(hot, rate_per_project=240_000.0)[0]
        return out

    rates = once(sweep)
    print_header("DNE scaling: served getattr/s under 2.4x-overload demand")
    for key, rate in rates.items():
        print(f"  {key!s:<16} {rate / 1e3:8.1f} KOps/s")
    # Capacity scales (hash imbalance costs a bit below linear).
    assert rates[2] > rates[1] * 1.4
    assert rates[4] > rates[2] * 1.3
    # A hot-standby pair serves only one server's worth.
    assert rates["hot-standby x2"] == pytest.approx(PER_MDS_CAPACITY, rel=0.1)


def test_dne_blast_radius(once):
    def run():
        cluster = make_cluster("dne", 4)
        client = cluster.new_client()
        victim = cluster.mds_for_path("/proj0/f", 0.0)
        victim.fail(0.0)
        lost = 0.0
        served = 0.0
        for t in range(10):
            for p in range(N_PROJECTS):
                client.submit(
                    Request(OperationType.STAT, path=f"/proj{p}/f", count=100.0)
                )
            served += cluster.service(float(t), 1.0)
        return served, client.failed_ops, cluster

    served, failed, cluster = once(run)
    print_header("DNE blast radius: one failed shard of four")
    offered = 10 * N_PROJECTS * 100.0
    print(
        f"  offered {offered:.0f} ops, served {served:.0f}, "
        f"unavailable {failed:.0f} ({failed / offered * 100:.1f}%)"
    )
    # Only the failed shard's projects are unavailable -- roughly its
    # hash share, far from a full outage.
    assert 0.05 <= failed / offered <= 0.6
    assert served > 0
