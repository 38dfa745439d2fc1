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
* a rack is an address whose handler answers the two hierarchy verbs
  from the coordinator's state and refuses any other;
* a simulation runs once, then finishes once.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigError, RPCError
from repro.core.algorithms import MIN_RATE, DominantResourceFairness, ProportionalSharing
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    rack_index,
)
from repro.core.policies import ConstantRate, PolicyRule, RuleScope, SteppedRate
from repro.core.rpc import CollectStats, Ping
from repro.experiments.fig4_sharded import run_fig4_sharded
from repro.telemetry.runtime import Telemetry
from repro.simulation.sharded import (
    UNLIMITED,
    FluidConfig,
    RackSpec,
    ShardPool,
    ShardedConfig,
    ShardedSimulation,
)
from repro.simulation.sharded.fluid import BURST_SECONDS, FluidBlock


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


#: ``policed_job_placement(n)`` (below) over 30 s: whole jobs per rack,
#: so rack0's slots gather job0's and job4's three stages each and
#: ``job_of`` is not the identity; job0's policy carries an explicit
#: burst and cuts its rate at t = 10, job4's derives its burst.  Frozen
#: while enforcement still went through per-slot staging arrays.
JOB_PLACEMENT_DIGEST = (
    "d4c019bfa451c80b8f5c7d37d13f99269d01fe55e3ba62429cf61ee26ecb3b25"
)


#: ``padll-repro sharded --jobs 8 --stages-per-job 4 --racks 8
#: --clients-per-stage 20 --duration 60 --step-period 15 --placement job
#: --digest-only``, frozen with :data:`JOB_PLACEMENT_DIGEST`.  The
#: ``sharded-smoke`` CI job pins the same literal.
JOB_PLACEMENT_CLI_DIGEST = (
    "a5c56ffb8a05b5aa42c8785a7c08163c97a17c202a23b2d017e92a3d5fad6696"
)


def policed_job_placement(n_shards):
    """A job-placement run with no allocator: two policies, one with an
    explicit burst and a mid-run cut."""
    sim = ShardedSimulation(small_config(placement="job", n_shards=n_shards))
    plane = sim.control_plane
    plane.install_policy(
        PolicyRule(
            "cut",
            RuleScope("metadata", job_id="job0"),
            SteppedRate([(0.0, 30.0), (10.0, 6.0)]),
            burst=90.0,
        )
    )
    plane.install_policy(
        PolicyRule("cap", RuleScope("metadata", job_id="job4"), ConstantRate(12.0))
    )
    sim.run(30.0)
    return sim.finish()


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
    """Push per-stage job rates through the rack's one rate verb."""
    job_ids = rack.layout[0].job_ids
    for job_id, rate in job_rates.items():
        rack.set_rates(job_ids.index(job_id), rate)


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
            vec.run_epoch(float(t), 1)
            ref.run_epoch(float(t), 1)
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
        assert np.all(rack.tokens == UNLIMITED)
        install(rack, job0=10.0)
        # A push lands at the start of the next epoch, not before.
        assert np.all(rack.rate == UNLIMITED)
        rack.run_epoch(0.0, 0)
        job0 = rack.job_of == 0
        assert np.all(rack.rate[job0] == 10.0)
        assert np.all(rack.burst_limit[job0] == 10.0 * BURST_SECONDS)
        # Accumulated tokens must not survive above the new burst cap.
        assert np.all(rack.tokens[job0] <= rack.burst_limit[job0])
        assert np.all(rack.tokens[job0] == 10.0 * BURST_SECONDS)
        assert np.all(rack.tokens[~job0] == UNLIMITED)

    def test_explicit_burst_overrides_the_derived_one(self):
        rack = one_rack(make_spec(), small_fluid())
        rack.set_rates(1, 5.0, 40.0)
        rack.run_epoch(0.0, 0)
        job1 = rack.job_of == 1
        assert np.all(rack.rate[job1] == 5.0)
        assert np.all(rack.burst_limit[job1] == 40.0)
        # The slot no push wrote keeps its rate.
        assert np.all(rack.rate[~job1] == UNLIMITED)

    def test_the_later_push_to_a_slot_wins_burst_and_all(self):
        rack = one_rack(make_spec(), small_fluid())
        rack.set_rates(1, 5.0, 40.0)
        rack.set_rates(np.array([0, 1], dtype=np.intp), np.array([3.0, 7.0]))
        rack.run_epoch(0.0, 0)
        assert rack.rate.tolist() == [3.0, 7.0] * 3
        assert rack.burst_limit.tolist() == [3.0 * BURST_SECONDS, 7.0 * BURST_SECONDS] * 3

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
    """Pushes over ``specs`` as ``(slot, rate, burst)`` in global slot
    order: the first job of every rack cut, and the last rack's last job
    cut with the one explicit burst."""
    pool = ShardPool([specs], small_fluid())
    cuts = {}
    for rack_id, rack in pool.racks.items():
        if rack.job_ids:
            cuts[pool.slot_of[(rack_id, rack.job_ids[0])]] = (12.5, None)
    cuts[pool.n_slots - 1] = (5.0, 40.0)
    return pool, [(slot, rate, burst) for slot, (rate, burst) in sorted(cuts.items())]


def push(block, cuts, first=0):
    """Push the ``cuts`` that fall in ``block``, whose slots start at
    global slot ``first``, through the block's rate verb."""
    for slot, rate, burst in cuts:
        if first <= slot < first + block.n_slots:
            block.set_rates(slot - first, rate, burst)


class TestFluidBlock:
    """A shard's one array set == its racks, each advanced alone."""

    @pytest.mark.parametrize("placement", ["split", "job"])
    def test_block_is_its_racks(self, placement):
        specs = layout_specs(placement)
        assert not specs[1].stages and specs[0].stages and specs[2].stages
        config = small_fluid()
        block = FluidBlock(specs, config)
        racks = [one_rack(spec, config) for spec in specs]
        pool, cuts = rate_cut(specs)
        assert 3 <= len(cuts) < pool.n_slots
        assert [burst for _slot, _rate, burst in cuts].count(None) == len(cuts) - 1

        def joined(attr):
            return np.concatenate([getattr(rack, attr) for rack in racks])

        for t in range(40):
            if t == 15:
                push(block, cuts)
                for rack in racks:
                    push(rack, cuts, pool.racks[rack.rack_ids[0]].slots.start)
            if t == 25:  # an epoch boundary: partials out, window reset
                assert np.array_equal(
                    block.demand_partials_array(2.0),
                    np.concatenate([r.demand_partials_array(2.0) for r in racks]),
                )
            block.run_epoch(float(t), 1)
            for rack in racks:
                rack.run_epoch(float(t), 1)
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
        _pool, cuts = rate_cut(specs)
        for t in range(40):
            if t == 15:
                push(vec, cuts)
                push(ref, cuts)
            vec.run_epoch(float(t), 1)
            ref.run_epoch(float(t), 1)
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
            if epoch == 2:  # cut job1 everywhere, explicit burst
                for rack_id in pool.racks:
                    block, first = pool.block_of[rack_id]
                    block.set_rates(pool.slot_of[(rack_id, "job1")] - first, 6.5, 20.0)
            if epoch == 4:  # cut job0 on racks 1 and 4 only, derived burst
                for k, rack_id in enumerate(list(pool.racks)[1::3]):
                    block, first = pool.block_of[rack_id]
                    block.set_rates(pool.slot_of[(rack_id, "job0")] - first, 3.25 * (k + 1))
            outs.append(pool.run_epoch_arrays(float(2 * epoch), 2, 2.0))
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

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_job_placement_with_an_explicit_burst_is_the_literal(self, n_shards):
        assert policed_job_placement(n_shards).digest() == JOB_PLACEMENT_DIGEST

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_job_placement_fig4_cell_is_the_ci_literal(self, n_shards):
        result = run_fig4_sharded(
            n_jobs=8,
            stages_per_job=4,
            n_racks=8,
            n_shards=n_shards,
            clients_per_stage=20,
            duration=60.0,
            step_period=15.0,
            placement="job",
        )
        assert result.digest() == JOB_PLACEMENT_CLI_DIGEST

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
        # The last cycle's pushes wait in the blocks' slot arrays for the
        # next epoch: every hosted (rack, job) slot holds the plane's
        # per-stage rate for its job, with the derived burst -- the
        # algorithm pushes after the policy, so its write wins.
        config = small_config()
        sim = ShardedSimulation(
            config, algorithm=ProportionalSharing(capacity=120.0)
        )
        sim.control_plane.install_policy(
            PolicyRule(
                "cap", RuleScope("metadata", job_id="job0"), ConstantRate(30.0),
                burst=90.0,
            )
        )
        sim.run(3.0)
        plane, pool = sim.control_plane, sim._pool
        last = {job_id: rate for _now, job_id, rate in list(plane.enforcement_log)[-6:]}
        assert len(pool.slot_of) == pool.n_slots == 18
        for (rack_id, job_id), slot in pool.slot_of.items():
            block, first = pool.block_of[rack_id]
            per_stage = max(MIN_RATE, last[job_id] / plane.jobs[job_id].n_stages)
            assert block._job_rate[slot - first] == per_stage
            assert block._job_burst[slot - first] == per_stage * BURST_SECONDS
        sim.close()

    def test_a_policy_push_reaches_the_slots_through_the_batch_verb(self):
        # Policy and pause pushes are EnforceJobRateBatch entries, each
        # (job, rate, burst) written into its rack block's slot arrays;
        # with no algorithm nothing else writes a slot.
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
        pool = sim._pool
        slots = [
            pool.slot_of[(rack_id, "job0")]
            for rack_id in sim.control_plane.hosting_locals("job0")
        ]
        rates = np.concatenate([block._job_rate for block, _ in pool._blocks])
        bursts = np.concatenate([block._job_burst for block, _ in pool._blocks])
        assert len(slots) == 3 and np.count_nonzero(rates != UNLIMITED) == 3
        # 30 ops/s and a 60-op burst split over job0's 3 stages.
        assert rates[slots].tolist() == [10.0] * 3
        assert bursts[slots].tolist() == [20.0] * 3
        assert sim.finish().digest() == policed(2).finish().digest()

    @pytest.mark.parametrize(
        "placement, expected",
        [
            ("split", ([0] * 4, [3] * 4, [18] * 4, [3, 18, 3, 3])),
            ("job", ([0] * 4, [1] * 4, [6] * 4, [1, 6, 1, 1])),
        ],
    )
    def test_epoch_event_counts_the_distinct_slots_a_cycle_wrote(
        self, placement, expected
    ):
        # No push; a policy on job0 (its hosting slots); policy and
        # algorithm (every slot, overlapping the policy's); policy with a
        # paused second cycle (every job's slots at MIN_RATE).
        def pushes(algorithm, policy, pause):
            telemetry = Telemetry()
            sim = ShardedSimulation(
                small_config(placement=placement, n_shards=2),
                algorithm=algorithm,
                telemetry=telemetry,
            )
            plane = sim.control_plane
            if policy:
                plane.install_policy(
                    PolicyRule(
                        "cap", RuleScope("metadata", job_id="job0"),
                        ConstantRate(30.0), burst=90.0,
                    )
                )
            if pause:
                health = iter([True, False, True, True])
                plane.health_probe = lambda: next(health)
            sim.run(4.0)
            sim.close()
            return [
                event.fields["pushes"]
                for event in telemetry.events.of_kind("shard.epoch")
            ]

        assert (
            pushes(None, False, False),
            pushes(None, True, False),
            pushes(ProportionalSharing(capacity=120.0), True, True),
            pushes(None, True, True),
        ) == expected


class TestRackHandler:
    def test_answers_collect_and_batch_and_refuses_other_verbs(self):
        # A collect is the rack's slice of the barrier's demand vector; a
        # batch entry lands in its block's slot arrays (a job the rack
        # does not host is skipped); any other verb is an RPCError.
        sim = ShardedSimulation(small_config())
        plane, pool = sim.control_plane, sim._pool
        sim.run(1.0)
        rack = pool.racks["rack1"]
        reply = plane.fabric.call("rack1", CollectAggregate(1.0, "metadata", 1.0))
        assert type(reply) is AggregateStats
        assert (reply.job_ids, reply.stage_counts) == (rack.job_ids, rack.stage_counts)
        assert reply.demand.tobytes() == sim._demand[rack.slots].tobytes()
        job_id = rack.job_ids[0]
        batch = EnforceJobRateBatch(
            "metadata", 1.0, ((job_id, 7.0, 21.0), ("ghost", 1.0, None))
        )
        assert plane.fabric.call("rack1", batch) is True
        block, first = pool.block_of["rack1"]
        slot = pool.slot_of[("rack1", job_id)] - first
        assert (block._job_rate[slot], block._job_burst[slot]) == (7.0, 21.0)
        for message in (Ping("hi"), CollectStats(1.0)):
            with pytest.raises(RPCError, match="rack1"):
                plane.fabric.call("rack1", message)
        sim.close()


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
        demand = pool.run_epoch_arrays(0.0, 1, 1.0)
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
