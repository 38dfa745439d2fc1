"""Shared-memory shard fabric: layout, equality, hygiene, failure.

The contracts under test (see ``repro.simulation.sharded.shm`` and
``repro.simulation.sharded.pool``):

* the frozen :class:`ShardIndexMap` reproduces FluidRack's job registry
  order exactly (the pin the shm module docstring references);
* resident workers over the shm wire compute bit-identical demand
  partials and finals to in-process racks, at 1, 2, and 4 shards;
* no ``/dev/shm`` segment outlives the pool: normal exit, worker
  crash, and double-stop all leave nothing behind;
* a dead or silent worker raises :class:`ShardWorkerError` naming the
  shard and its racks instead of hanging the coordinator.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ConfigError, ShardWorkerError
from repro.simulation.sharded import (
    FluidConfig,
    FluidRack,
    RackSpec,
    ShardPool,
)
from repro.simulation.sharded.shm import (
    BURST_NONE,
    ShardBuffers,
    ShardIndexMap,
)

from tests.simulation.test_sharded import no_updates


def make_spec(n_stages=6, n_jobs=2, index=0):
    return RackSpec(
        rack_id=f"rack{index}",
        index=index,
        stages=tuple(
            (f"job{i % n_jobs}-s{i // n_jobs}", f"job{i % n_jobs}")
            for i in range(n_stages)
        ),
    )


def fluid_config(**kw):
    defaults = dict(seed=3, clients_per_stage=5)
    defaults.update(kw)
    return FluidConfig(**defaults)


def shard_blocks(n_racks, n_shards):
    specs = [make_spec(n_stages=5, n_jobs=3, index=i) for i in range(n_racks)]
    base, extra = divmod(n_racks, n_shards)
    blocks, at = [], 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        blocks.append(specs[at:at + size])
        at += size
    return blocks


def shm_files():
    """Names of live shared-memory segments (Linux tmpfs backing)."""
    try:
        return {name for name in os.listdir("/dev/shm")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestIndexMap:
    def test_matches_fluid_rack_registry_order(self):
        # The coordinator and workers never ship the map; both derive it
        # from the specs, so it must reproduce FluidRack's registry --
        # job ids in first-appearance order, with their stage counts.
        spec = make_spec(n_stages=11, n_jobs=4)
        index_map = ShardIndexMap([spec])
        rack = FluidRack(spec, fluid_config())
        assert index_map.rack_job_ids[0] == tuple(rack.job_ids)
        counts = np.bincount(rack.job_of, minlength=len(rack.job_ids))
        assert index_map.rack_stage_counts[0] == tuple(counts.tolist())

    def test_slots_are_contiguous_per_rack(self):
        specs = [make_spec(index=0), make_spec(n_jobs=3, index=1)]
        index_map = ShardIndexMap(specs)
        assert index_map.n_slots == 2 + 3
        assert index_map.rack_slice("rack0") == slice(0, 2)
        assert index_map.rack_slice("rack1") == slice(2, 5)
        assert index_map.slot_of("rack1", "job2") == 4
        assert index_map.slot_of("rack0", "job2") == -1
        assert index_map.slot_of("ghost", "job0") == -1

    def test_layout_token_fingerprints_layout(self):
        specs = [make_spec(index=0), make_spec(index=1)]
        assert (
            ShardIndexMap(specs).layout_token()
            == ShardIndexMap(specs).layout_token()
        )
        # Any change to the (rack, job, stage-count) layout moves the token.
        other = [make_spec(index=0), make_spec(n_stages=8, index=1)]
        assert (
            ShardIndexMap(specs).layout_token()
            != ShardIndexMap(other).layout_token()
        )

    def test_duplicate_rack_ids_rejected(self):
        with pytest.raises(ConfigError):
            ShardIndexMap([make_spec(index=0), make_spec(index=0)])


class TestShardBuffers:
    def test_attach_sees_owner_writes_and_cleanup_is_idempotent(self):
        owner = ShardBuffers(4)
        names = owner.names
        attacher = ShardBuffers(4, names=names)
        owner.scatter[1, 2, 0] = 7.5
        owner.gather[0, 3] = -1.25
        assert attacher.scatter[1, 2, 0] == 7.5
        assert attacher.gather[0, 3] == -1.25
        assert not attacher.owner and owner.owner
        attacher.close()
        owner.close()
        owner.unlink()
        owner.unlink()  # second unlink is a no-op
        for name in names:
            assert name not in shm_files()

    def test_zero_slots_allowed(self):
        buffers = ShardBuffers(0)
        assert buffers.scatter.shape == (2, 0, 3)
        buffers.close()
        buffers.unlink()


class TestWireEquality:
    """Resident workers over the shm wire == in-process racks, bit for bit."""

    def drive(self, n_shards, use_workers):
        pool = ShardPool(
            shard_blocks(4, n_shards), fluid_config(), use_workers=use_workers
        )
        index_map = pool.index_map
        outs = []
        try:
            for epoch in range(6):
                flags = np.zeros(pool.n_slots)
                rates = np.zeros(pool.n_slots)
                bursts = np.full(pool.n_slots, BURST_NONE)
                if epoch == 2:  # cut job1 everywhere mid-run
                    for rack_id in index_map.rack_ids:
                        slot = index_map.slot_of(rack_id, "job1")
                        flags[slot] = 1.0
                        rates[slot] = 6.5
                        bursts[slot] = 20.0
                outs.append(
                    pool.run_epoch_arrays(
                        float(epoch), 2, 2.0, flags, rates, bursts
                    )
                )
            finals = pool.finish()
        finally:
            pool.close()
        tail = [
            (f.rack_id, f.delivered_ops, f.backlog, f.served.tobytes())
            for f in finals
        ]
        return np.stack(outs), tail

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_workers_match_in_process_racks(self, n_shards):
        ref_demand, ref_tail = self.drive(1, use_workers=False)
        demand, tail = self.drive(n_shards, use_workers=True)
        assert np.array_equal(demand, ref_demand)
        assert tail == ref_tail


class TestSegmentHygiene:
    def test_normal_finish_leaves_no_segments(self):
        before = shm_files()
        pool = ShardPool(
            shard_blocks(4, 2), fluid_config(), use_workers=True
        )
        names = set(pool._buffers.names)
        assert names <= shm_files()
        pool.run_epoch_arrays(0.0, 1, 1.0, *no_updates(pool))
        pool.finish()  # closes the pool
        assert shm_files() - before == set()

    def test_double_stop_is_clean(self):
        before = shm_files()
        pool = ShardPool(
            shard_blocks(2, 2), fluid_config(), use_workers=True
        )
        pool.close()
        pool.close()
        assert shm_files() - before == set()
        with pytest.raises(ConfigError):
            pool.run_epoch_arrays(0.0, 1, 1.0, *no_updates(pool))

    def test_failed_worker_start_leaves_nothing_behind(self, monkeypatch):
        # The second worker fails to start after the first one is up:
        # the half-built pool must reap the first and unlink its segments.
        real_start = multiprocessing.process.BaseProcess.start
        calls = []

        def flaky_start(proc):
            calls.append(proc)
            if len(calls) == 2:
                raise OSError("cannot allocate memory")
            real_start(proc)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", flaky_start
        )
        before = shm_files()
        with pytest.raises(OSError, match="cannot allocate"):
            ShardPool(shard_blocks(4, 2), fluid_config(), use_workers=True)
        assert len(calls) == 2
        assert shm_files() - before == set()
        assert multiprocessing.active_children() == []

    def test_worker_crash_raises_named_error_and_unlinks(self):
        before = shm_files()
        pool = ShardPool(
            shard_blocks(4, 2), fluid_config(), use_workers=True
        )
        pool._procs[0].kill()
        pool._procs[0].join()
        with pytest.raises(ShardWorkerError) as err:
            pool.run_epoch_arrays(0.0, 1, 1.0, *no_updates(pool))
        assert err.value.shard == 0
        assert "rack0" in str(err.value)
        # The failed pool reaped itself: workers gone, segments unlinked.
        assert shm_files() - before == set()
        pool.close()  # still idempotent after the failure path


class TestFailureDetection:
    def test_silent_worker_hits_reply_deadline(self):
        pool = ShardPool(
            shard_blocks(2, 1),
            fluid_config(),
            use_workers=True,
            recv_timeout=0.2,
        )
        try:
            # No doorbell was sent, so the (healthy, idle) worker never
            # replies: the deadline must fire instead of blocking.
            with pytest.raises(ShardWorkerError) as err:
                pool._await_reply(0)
            assert "deadline" in str(err.value)
            assert err.value.racks == ("rack0", "rack1")
        finally:
            pool.close()

    def test_recv_timeout_validated(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                ShardPool(
                    shard_blocks(2, 1), fluid_config(), recv_timeout=bad
                )
