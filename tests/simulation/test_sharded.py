"""Sharded fluid engine: bit-identity, shard invariance, enforcement.

The contracts under test (see ``repro.simulation.sharded.fluid``):

* a rack on the scalar per-stage reference arithmetic (a one-rack
  ``FluidBlock(vectorized=False)``) and a vectorised rack hold
  bit-identical state and outputs, and so does a multi-rack block;
* a block of racks advanced as one array set holds exactly what its
  racks hold when each is advanced alone;
* the pool's slot index (``racks`` and ``slot_of``) is its blocks' slots
  laid end to end and covers every (job, rack) pair the plane pushes to,
  and N in-process blocks produce the demand partials and finals of one
  block;
* the full-run digest is identical for 1 shard and N shards, equals a
  literal frozen before the engine's alternative wire and control loop
  were deleted, and a run at any shard count starts no process;
* demand partials follow the hierarchy's exact per-stage expression;
* enforcement pushed by the global plane genuinely caps throughput;
* a simulation runs once, then finishes once.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.algorithms import DominantResourceFairness, ProportionalSharing
from repro.core.hierarchy import rack_index
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.experiments.fig4_sharded import run_fig4_sharded
from repro.simulation.sharded import (
    UNLIMITED,
    FluidConfig,
    RackSpec,
    ShardPool,
    ShardedConfig,
    ShardedSimulation,
)
from repro.simulation.sharded.fluid import BURST_NONE, BURST_SECONDS, FluidBlock


def small_fluid(**kw):
    defaults = dict(seed=3, clients_per_stage=5)
    defaults.update(kw)
    return FluidConfig(**defaults)


def small_config(**kw):
    defaults = dict(
        n_racks=4,
        n_shards=1,
        n_jobs=6,
        stages_per_job=3,
        placement="split",
        loop_interval=1.0,
        fluid=small_fluid(),
    )
    defaults.update(kw)
    return ShardedConfig(**defaults)


#: ``small_config()`` + ``ProportionalSharing(capacity=150.0)`` over 30 s.
#: Frozen before the pipe fabric, the triple control loop and the
#: ``vectorized`` switches were deleted: at that commit all 24
#: combinations of ``vectorized`` x ``fabric`` x ``vector_control`` x
#: ``n_shards in (1, 2, 4)`` produced exactly this digest.
SMALL_CONFIG_DIGEST = (
    "aa956cbfb343f77d2e9d9bee39f1a2cd837e08dbbb27c250f4314f946241fe0e"
)


#: ``small_config()`` + the DRF below
#: (``test_list_based_allocator_is_shard_invariant``), frozen while DRF's
#: rates still reached the slots through ``EnforceJobRateBatch`` entries;
#: they now arrive through the array sink, with the same floats.
DRF_DIGEST = "d533e53af20bc4d871a3e429f0a8ea35f0f96143f889bd1aed5c06e13b365dfe"


#: ``padll-repro sharded --jobs 2500 --stages-per-job 4 --racks 32
#: --clients-per-stage 100 --duration 40 --step-period 15 --digest-only``:
#: 40 cycles x 2 500 jobs push 100 000 rows through the 65 536-row
#: enforcement log, which drops 13 whole blocks and keeps the last 536
#: rows of the 14th.
#: The ``sharded-smoke`` CI job pins the same literal.
WRAPPED_LOG_DIGEST = (
    "f457b63370885a5f4d9878555822a107131520d7f70de341a8b7e15385d75304"
)


def run_result(config, capacity=None, duration=30.0, algorithm=None, **kw):
    if algorithm is None and capacity is not None:
        algorithm = ProportionalSharing(capacity=capacity)
    sim = ShardedSimulation(config, algorithm=algorithm, **kw)
    sim.run(duration)
    return sim.finish()


def make_spec(n_stages=6, n_jobs=2, index=0):
    return RackSpec(
        rack_id=f"rack{index}",
        index=index,
        stages=tuple(
            (f"job{i % n_jobs}-s{i // n_jobs}", f"job{i % n_jobs}")
            for i in range(n_stages)
        ),
    )


def one_rack(spec, config, vectorized=True):
    """One rack as the engine holds it: a block of that rack alone."""
    return FluidBlock((spec,), config, vectorized=vectorized)


def install(rack, **job_rates):
    """Install per-stage job rates through the rack's one rate verb."""
    job_ids = rack.layout[0].job_ids
    mask = np.zeros(len(job_ids), dtype=bool)
    rates = np.zeros(len(job_ids))
    for job_id, rate in job_rates.items():
        slot = job_ids.index(job_id)
        mask[slot] = True
        rates[slot] = rate
    rack.apply_rate_arrays(mask, rates, np.full(len(job_ids), BURST_NONE))


class TestFluidRack:
    """One fluid rack, held as a one-rack ``FluidBlock``."""

    def test_scalar_matches_vectorized_bitwise(self):
        spec = make_spec()
        config = small_fluid()
        vec = one_rack(spec, config, vectorized=True)
        ref = one_rack(spec, config, vectorized=False)
        # Throttle one job mid-run so the rate/burst path is exercised too.
        for t in range(40):
            if t == 15:
                for rack in (vec, ref):
                    install(rack, job0=12.5)
            vec.tick(float(t))
            ref.tick(float(t))
        assert np.array_equal(vec.tokens, ref.tokens)
        assert np.array_equal(vec.backlog, ref.backlog)
        assert np.array_equal(vec.job_granted, ref.job_granted)
        assert [final_fields(f) for f in vec.finals()] == [
            final_fields(f) for f in ref.finals()
        ]
        assert np.array_equal(
            vec.demand_partials_array(1.0), ref.demand_partials_array(1.0)
        )

    def test_demand_partials_follow_hierarchy_expression(self):
        spec = make_spec(n_stages=6, n_jobs=2)
        config = small_fluid()
        rack = one_rack(spec, config)
        rack.run_epoch(0.0, 5)
        enqueued = rack.window_enqueued.copy()
        backlog = rack.backlog.copy()
        loop_interval = 5.0
        # The hierarchy's per-stage expression, accumulated per job in
        # stage-registration order (LocalController._collect_aggregate).
        expected = {}
        for i, (_stage, job_id) in enumerate(spec.stages):
            contrib = enqueued[i] / loop_interval + backlog[i] / loop_interval
            expected[job_id] = expected.get(job_id, 0.0) + contrib
        partials = rack.demand_partials_array(loop_interval)
        assert dict(zip(rack.layout[0].job_ids, partials.tolist())) == expected
        # The enqueued window resets at the epoch boundary.
        assert np.all(rack.window_enqueued == 0.0)

    def test_rates_start_unlimited_and_clamp_tokens_on_cut(self):
        rack = one_rack(make_spec(), small_fluid())
        assert np.all(rack.rate == UNLIMITED)
        install(rack, job0=10.0)
        job0 = rack.job_of == 0
        assert np.all(rack.rate[job0] == 10.0)
        assert np.all(rack.burst_limit[job0] == 10.0 * BURST_SECONDS)
        # Accumulated tokens must not survive above the new burst cap.
        assert np.all(rack.tokens[job0] <= rack.burst_limit[job0])

    def test_explicit_burst_overrides_the_derived_one(self):
        rack = one_rack(make_spec(), small_fluid())
        mask = np.array([False, True])
        rack.apply_rate_arrays(mask, np.array([0.0, 5.0]), np.array([np.nan, 40.0]))
        job1 = rack.job_of == 1
        assert np.all(rack.rate[job1] == 5.0)
        assert np.all(rack.burst_limit[job1] == 40.0)
        # The unflagged slot's zero rate is never installed.
        assert np.all(rack.rate[~job1] == UNLIMITED)

    def test_empty_rack_ticks_and_reports_nothing(self):
        rack = one_rack(RackSpec(rack_id="rack0", index=0, stages=()), small_fluid())
        rack.tick(0.0)
        assert rack.demand_partials_array(1.0).shape == (0,)
        (final,) = rack.finals()
        assert final.served.tolist() == [0.0]
        assert final.job_ids == () and final.backlog == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FluidConfig(clients_per_stage=0)
        with pytest.raises(ConfigError):
            RackSpec(rack_id="", index=0, stages=())
        with pytest.raises(ConfigError):
            RackSpec(rack_id="rack0", index=-1, stages=())


def layout_specs(placement, n_racks=4, n_jobs=7, stages_per_job=3, empty=1):
    """The coordinator's rack layout, with rack ``empty`` left without stages."""
    config = small_config(
        n_racks=n_racks, n_jobs=n_jobs, stages_per_job=stages_per_job,
        placement=placement,
    )
    stages = [[] for _ in range(n_racks)]
    for j in range(n_jobs):
        for s in range(stages_per_job):
            rack = rack_index(config.placement, j, s, config.n_racks)
            stages[rack].append((f"job{j}-s{s}", f"job{j}"))
    stages[empty] = []
    return [
        RackSpec(rack_id=f"rack{r}", index=r, stages=tuple(hosted))
        for r, hosted in enumerate(stages)
    ]


def final_fields(final):
    return (
        final.rack_id,
        final.served.tobytes(),
        final.job_ids,
        final.job_granted.tobytes(),
        final.delivered_ops,
        final.backlog,
    )


def rate_cut(specs):
    """Per-slot scatter arrays over ``specs``: the first job of every rack
    cut, and the last rack's last job cut with the one explicit burst."""
    pool = ShardPool([specs], small_fluid())
    mask = np.zeros(pool.n_slots, dtype=bool)
    rates = np.zeros(pool.n_slots)
    bursts = np.full(pool.n_slots, BURST_NONE)
    for rack_id, rack in pool.racks.items():
        if rack.job_ids:
            slot = pool.slot_of[(rack_id, rack.job_ids[0])]
            mask[slot], rates[slot] = True, 12.5
    mask[-1], rates[-1], bursts[-1] = True, 5.0, 40.0
    return pool, mask, rates, bursts


class TestFluidBlock:
    """A shard's one array set == its racks, each advanced alone."""

    @pytest.mark.parametrize("placement", ["split", "job"])
    def test_block_is_its_racks(self, placement):
        specs = layout_specs(placement)
        assert not specs[1].stages and specs[0].stages and specs[2].stages
        config = small_fluid()
        block = FluidBlock(specs, config)
        racks = [one_rack(spec, config) for spec in specs]
        pool, mask, rates, bursts = rate_cut(specs)
        assert 3 <= mask.sum() < len(mask) and np.isnan(bursts).sum() == len(bursts) - 1

        def joined(attr):
            return np.concatenate([getattr(rack, attr) for rack in racks])

        for t in range(40):
            if t == 15:
                block.apply_rate_arrays(mask, rates, bursts)
                for rack in racks:
                    sl = pool.racks[rack.rack_ids[0]].slots
                    rack.apply_rate_arrays(mask[sl], rates[sl], bursts[sl])
            if t == 25:  # an epoch boundary: partials out, window reset
                assert np.array_equal(
                    block.demand_partials_array(2.0),
                    np.concatenate([r.demand_partials_array(2.0) for r in racks]),
                )
            block.tick(float(t))
            for rack in racks:
                rack.tick(float(t))
            assert [rack._served[0] for rack in racks] == block._served
        for attr in ("tokens", "backlog", "window_enqueued", "job_granted",
                     "rate", "burst_limit"):
            assert np.array_equal(getattr(block, attr), joined(attr)), attr
        finals = block.finals()
        assert [final_fields(f) for f in finals] == [
            final_fields(rack.finals()[0]) for rack in racks
        ]
        assert [len(final.served) for final in finals] == [40] * len(racks)
        assert float(np.sum(finals[1].served)) == 0.0  # the empty rack
        assert np.array_equal(
            block.demand_partials_array(1.0),
            np.concatenate([r.demand_partials_array(1.0) for r in racks]),
        )

    def test_scalar_matches_vectorized_on_a_multi_rack_block(self):
        specs = layout_specs("split")
        config = small_fluid()
        vec = FluidBlock(specs, config, vectorized=True)
        ref = FluidBlock(specs, config, vectorized=False)
        _pool, mask, rates, bursts = rate_cut(specs)
        for t in range(40):
            if t == 15:
                vec.apply_rate_arrays(mask, rates, bursts)
                ref.apply_rate_arrays(mask, rates, bursts)
            vec.tick(float(t))
            ref.tick(float(t))
        for attr in ("tokens", "backlog", "window_enqueued", "job_granted"):
            assert np.array_equal(getattr(vec, attr), getattr(ref, attr)), attr
        assert [final_fields(f) for f in vec.finals()] == [
            final_fields(f) for f in ref.finals()
        ]
        assert np.array_equal(
            vec.demand_partials_array(1.0), ref.demand_partials_array(1.0)
        )

    def test_block_slots_are_the_index_map_slots(self):
        # The pool hands each block its slice of the global slot arrays
        # verbatim, so block slot k is pool slot (block offset + k).
        specs = layout_specs("job", n_racks=5)
        pool = ShardPool([specs[:2], specs[2:]], small_fluid())
        offset = 0
        for block, s in pool._blocks:
            assert s == slice(offset, offset + block.n_slots)
            stages = [(spec.rack_id, job) for spec in specs
                      if spec.rack_id in block.rack_ids for _stage, job in spec.stages]
            assert (block.job_of + offset).tolist() == [
                pool.slot_of[pair] for pair in stages
            ]
            for rack_id, rack in zip(block.rack_ids, block.layout):
                table = pool.racks[rack_id]
                assert table.job_ids == rack.job_ids
                assert table.stage_counts == rack.stage_counts
                assert table.slots == slice(
                    offset + rack.slots.start, offset + rack.slots.stop
                )
            offset += block.n_slots
        assert pool.n_slots == offset == len(pool.slot_of)


class TestIndexMap:
    """The pool's slot index: its ``racks`` table and ``slot_of``."""

    def test_matches_fluid_rack_registry_order(self):
        # Job ids in first-appearance order, with their stage counts.
        spec = make_spec(n_stages=11, n_jobs=4)
        rack = ShardPool([[spec]], small_fluid()).racks["rack0"]
        jobs = [job_id for _stage, job_id in spec.stages]
        assert rack.job_ids == tuple(dict.fromkeys(jobs)) == (
            "job0", "job1", "job2", "job3",
        )
        assert rack.stage_counts == tuple(Counter(jobs)[j] for j in rack.job_ids)
        assert rack.stage_counts == (3, 3, 3, 2)

    def test_slots_are_contiguous_per_rack(self):
        pool = ShardPool(
            [[make_spec(index=0)], [make_spec(n_jobs=3, index=1)]], small_fluid()
        )
        assert pool.n_slots == 2 + 3
        assert pool.racks["rack0"].slots == slice(0, 2)
        assert pool.racks["rack1"].slots == slice(2, 5)
        assert pool.slot_of[("rack1", "job2")] == 4
        assert ("rack0", "job2") not in pool.slot_of
        assert ("ghost", "job0") not in pool.slot_of

    def test_duplicate_rack_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate rack id 'rack0'"):
            ShardPool([[make_spec(index=0)], [make_spec(index=0)]], small_fluid())
        with pytest.raises(ConfigError, match="duplicate rack id"):
            ShardPool([[make_spec(index=0), make_spec(index=0)]], small_fluid())

    @pytest.mark.parametrize("placement", ["split", "job"])
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_pair_the_plane_pushes_to_has_a_slot(self, placement, n_shards):
        sim = ShardedSimulation(
            small_config(n_jobs=7, placement=placement, n_shards=n_shards)
        )
        plane, pool = sim.control_plane, sim._pool
        hosted = {
            (rack_id, job_id)
            for job_id in plane.vector_job_ids()
            for rack_id in plane.hosting_locals(job_id)
        }
        assert hosted == set(pool.slot_of)
        stages = Counter()
        for rack_id, rack in pool.racks.items():
            stages.update(dict(zip(rack.job_ids, rack.stage_counts)))
        assert stages == {
            job_id: job.n_stages for job_id, job in plane.jobs.items()
        }
        assert set(stages.values()) == {3}
        sim.close()


def shard_blocks(n_racks, n_shards):
    """``n_racks`` small racks cut into ``n_shards`` contiguous blocks,
    the larger blocks first (the coordinator's partition)."""
    specs = [make_spec(n_stages=5, n_jobs=3, index=i) for i in range(n_racks)]
    base, extra = divmod(n_racks, n_shards)
    blocks, at = [], 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        blocks.append(specs[at:at + size])
        at += size
    return blocks


class TestBlockEquality:
    """N in-process blocks == one block, bit for bit, epoch by epoch."""

    def drive(self, n_shards):
        pool = ShardPool(shard_blocks(5, n_shards), small_fluid())
        outs = []
        for epoch in range(6):
            flags, rates = np.zeros(pool.n_slots), np.zeros(pool.n_slots)
            bursts = np.full(pool.n_slots, BURST_NONE)
            if epoch == 2:  # cut job1 everywhere, explicit burst
                for rack_id in pool.racks:
                    slot = pool.slot_of[(rack_id, "job1")]
                    flags[slot], rates[slot], bursts[slot] = 1.0, 6.5, 20.0
            if epoch == 4:  # cut job0 on racks 1 and 4 only, derived burst
                for k, rack_id in enumerate(list(pool.racks)[1::3]):
                    slot = pool.slot_of[(rack_id, "job0")]
                    flags[slot], rates[slot] = 1.0, 3.25 * (k + 1)
            outs.append(
                pool.run_epoch_arrays(float(2 * epoch), 2, 2.0, flags, rates, bursts)
            )
        return np.stack(outs), [final_fields(f) for f in pool.finals()]

    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_blocks_match_one_block(self, n_shards):
        # 5 racks: blocks of 3/2, 2/2/1 and 2/1/1/1.
        ref_demand, ref_finals = self.drive(1)
        demand, finals = self.drive(n_shards)
        assert demand.shape == (6, 5 * 3)
        assert np.array_equal(demand, ref_demand)
        assert finals == ref_finals


class TestShardInvariance:
    """The tentpole contract: fixed-seed results are bit-identical to the
    single-engine run regardless of how racks are farmed out."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_digest_is_the_frozen_literal_at_every_shard_count(self, n_shards):
        result = run_result(small_config(n_shards=n_shards), capacity=150.0)
        assert result.digest() == SMALL_CONFIG_DIGEST

    def test_one_resident_worker_computes_the_frozen_literal(self):
        # The one shard a resident worker used to hold is a single
        # FluidBlock in this process, and it computes the literal.
        sim = ShardedSimulation(
            small_config(n_shards=1), algorithm=ProportionalSharing(capacity=150.0)
        )
        assert [type(block) for block, _ in sim._pool._blocks] == [FluidBlock]
        sim.run(30.0)
        assert sim.finish().digest() == SMALL_CONFIG_DIGEST

    def test_four_shards_run_in_process(self):
        # Every epoch of a 4-shard run happens with no child process alive.
        seen = []

        def hook(_plane, _now):
            seen.append(multiprocessing.active_children())

        result = run_result(
            small_config(n_shards=4), capacity=150.0, epoch_hook=hook
        )
        assert result.digest() == SMALL_CONFIG_DIGEST
        assert seen == [[]] * 30

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_digest_of_a_wrapped_enforcement_log_is_the_literal(self, n_shards):
        result = run_fig4_sharded(
            n_jobs=2_500,
            stages_per_job=4,
            n_racks=32,
            n_shards=n_shards,
            clients_per_stage=100,
            duration=40.0,
            step_period=15.0,
        )
        log = result.results["padll"].enforcement_log
        assert len(log) == 65_536  # the default history_limit, wrapped
        assert result.digest() == WRAPPED_LOG_DIGEST

    def test_list_based_allocator_is_shard_invariant(self):
        # DRF searches over Python lists behind allocate_arrays; its rates
        # reach the slot arrays through the array sink like every other
        # allocator's.
        def drf():
            return DominantResourceFairness(
                capacities={"mds": 150.0},
                usages={f"job{j}": {"mds": 1.0 + 0.5 * j} for j in range(6)},
            )

        one = run_result(small_config(n_shards=1), algorithm=drf())
        two = run_result(small_config(n_shards=2), algorithm=drf())
        assert len(one.enforcement_log) == 30 * 6
        assert one.digest() == two.digest() == DRF_DIGEST
        # Enforcement really landed: DRF caps what an uncapped run delivers.
        free = run_result(small_config(n_shards=1))
        assert one.delivered_ops < free.delivered_ops

    def test_uneven_rack_blocks_are_invariant(self):
        # 4 racks over 3 shards: blocks of 2/1/1.
        a = run_result(small_config(n_shards=1), capacity=150.0)
        b = run_result(small_config(n_shards=3), capacity=150.0)
        assert a.digest() == b.digest()

    def test_split_reduces_to_job_placement_for_single_stage_jobs(self):
        split = run_result(
            small_config(stages_per_job=1, placement="split"), capacity=80.0
        )
        whole = run_result(
            small_config(stages_per_job=1, placement="job"), capacity=80.0
        )
        assert split.digest() == whole.digest()

    def test_racks_without_stages_are_harmless(self):
        config = small_config(n_jobs=1, stages_per_job=1, n_racks=2, n_shards=2)
        result = run_result(config, capacity=40.0)
        assert set(result.rack_served) == {"rack0", "rack1"}
        assert float(np.sum(result.rack_served["rack1"])) == 0.0


class TestEnforcement:
    def test_control_plane_genuinely_caps_throughput(self):
        config = small_config()
        free = run_result(config, capacity=None, duration=60.0)
        # Capacity far below offered load: ~5 clients * 8 ops * 18 stages.
        capped = run_result(config, capacity=120.0, duration=60.0)
        assert len(capped.enforcement_log) > 0
        assert len(free.enforcement_log) == 0
        assert capped.delivered_ops < 0.6 * free.delivered_ops
        # Undelivered demand shows up as backlog, not as lost accounting.
        assert capped.final_backlog > free.final_backlog

    def test_enforcement_flags_every_hosting_slot(self):
        config = small_config()
        sim = ShardedSimulation(
            config, algorithm=ProportionalSharing(capacity=120.0)
        )
        sim.run(3.0)
        # Pushes are staged as scatter slot flags for the next epoch:
        # after the last tick every hosted (rack, job) slot is flagged.
        assert np.count_nonzero(sim._flags) == sim._pool.n_slots
        sim.close()

    def test_a_policy_push_reaches_the_slots_through_the_batch_verb(self):
        # Policy and pause pushes are EnforceJobRateBatch entries, each
        # (job, rate, burst) unpacked into the scatter staging; with no
        # algorithm nothing else writes a slot.
        def policed(n_shards):
            sim = ShardedSimulation(small_config(n_shards=n_shards))
            sim.control_plane.install_policy(
                PolicyRule(
                    "cap",
                    RuleScope("metadata", job_id="job0"),
                    ConstantRate(30.0),
                    burst=60.0,
                )
            )
            sim.run(3.0)
            return sim

        sim = policed(1)
        slots = [
            sim._pool.slot_of[(rack_id, "job0")]
            for rack_id in sim.control_plane.hosting_locals("job0")
        ]
        assert len(slots) == 3 and np.count_nonzero(sim._flags) == 3
        # 30 ops/s and a 60-op burst split over job0's 3 stages.
        assert sim._rates_arr[slots].tolist() == [10.0] * 3
        assert sim._bursts_arr[slots].tolist() == [20.0] * 3
        assert sim.finish().digest() == policed(2).finish().digest()


class TestLifecycle:
    def test_run_is_single_shot_and_validates_duration(self):
        sim = ShardedSimulation(small_config())
        with pytest.raises(ConfigError):
            sim.run(1.5)  # not a multiple of loop_interval
        sim.run(2.0)
        with pytest.raises(ConfigError):
            sim.run(2.0)
        sim.close()

    def test_finish_is_single_shot_and_needs_a_run(self):
        sim = ShardedSimulation(small_config())
        with pytest.raises(ConfigError, match="needs one completed run"):
            sim.finish()
        sim.run(2.0)
        assert len(sim.finish().aggregate_served) == 2
        with pytest.raises(ConfigError, match="state: closed"):
            sim.finish()
        with pytest.raises(ConfigError, match="run once"):
            sim.run(2.0)

    def test_close_is_idempotent_and_final(self):
        sim = ShardedSimulation(small_config(n_shards=2))
        assert len(sim._pool._blocks) == 2
        sim.close()
        sim.close()
        with pytest.raises(ConfigError, match="state: closed"):
            sim.run(2.0)
        with pytest.raises(ConfigError, match="state: closed"):
            sim.finish()
        ran = ShardedSimulation(small_config()).run(2.0)
        ran.close()
        with pytest.raises(ConfigError, match="state: closed"):
            ran.finish()

    def test_context_manager_and_empty_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardPool([], small_fluid())
        with pytest.raises(ConfigError):
            ShardPool([[make_spec(index=0)], []], small_fluid())
        with ShardedSimulation(small_config()) as sim:
            sim.run(2.0)
        with pytest.raises(ConfigError, match="state: closed"):
            sim.finish()
        pool = ShardPool([[make_spec()]], small_fluid())
        zeros = np.zeros(pool.n_slots)
        demand = pool.run_epoch_arrays(
            0.0, 1, 1.0, zeros, zeros, np.full(pool.n_slots, BURST_NONE)
        )
        assert list(pool.racks) == ["rack0"]
        assert demand.shape == (pool.n_slots,) and np.all(demand > 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_shards=5)  # > n_racks
        with pytest.raises(ConfigError):
            small_config(n_shards=0)
        with pytest.raises(ConfigError):
            small_config(placement="round-robin")
        with pytest.raises(ConfigError):
            small_config(loop_interval=1.5)  # not a multiple of DT=1.0
        config = small_config()
        assert config.n_stages == 18
        assert config.n_clients == 90
