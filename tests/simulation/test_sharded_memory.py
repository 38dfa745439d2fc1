"""What a sharded run keeps in memory, and for how long.

The result digest encodes the enforcement log a chunk of rows at a time
instead of as one JSON copy, with the same bytes; a closed simulation is
freed by reference counting alone, not left as cyclic garbage for the
collector, and so is every world a multi-world path builds before the
next one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import ProportionalSharing
from repro.experiments import fig4_sharded
from repro.runner.cells import grid
from repro.runner.sweep import SweepRunner
from repro.simulation.sharded import ShardedConfig, ShardedResult, ShardedSimulation
from repro.simulation.sharded.coordinator import _LOG_CHUNK
from tests.simulation.test_sharded import small_config

#: ``padll-repro sharded --digest-only`` at its default size (10^4
#: stages, 32 racks, 240 s: 24 000 log rows, several digest chunks).
#: The ``sharded-smoke`` CI job pins the same literal at 1 and 2 shards.
DEFAULT_CLI_DIGEST = (
    "ec2aecb8aac24ff10bcb3850c8d6224be7655c181414beb9ef04744230f9f693"
)


def whole_copy_digest(result):
    """:meth:`ShardedResult.digest` as it was before it streamed: the
    enforcement log goes through one ``json.dumps``."""
    digest = hashlib.sha256()
    for rack_id in result.rack_served:
        digest.update(rack_id.encode())
        digest.update(
            np.ascontiguousarray(result.rack_served[rack_id], dtype=np.float64).tobytes()
        )
    digest.update(
        np.ascontiguousarray(result.aggregate_served, dtype=np.float64).tobytes()
    )
    digest.update(
        json.dumps(
            {job: value.hex() for job, value in result.job_granted.items()},
            sort_keys=True,
        ).encode()
    )
    digest.update(
        json.dumps(
            [[now.hex(), job, rate.hex()] for now, job, rate in result.enforcement_log]
        ).encode()
    )
    digest.update(result.delivered_ops.hex().encode())
    digest.update(result.final_backlog.hex().encode())
    return digest.hexdigest()


def make_result(enforcement_log):
    return ShardedResult(
        config=ShardedConfig(),
        rack_served={"rack0": np.array([1.0, 2.5]), "rack1": np.array([0.0, -0.0])},
        aggregate_served=np.array([1.0, 2.5]),
        job_granted={"job0": 3.5, "job1": 0.0},
        enforcement_log=tuple(enforcement_log),
        delivered_ops=3.5,
        final_backlog=0.25,
    )


FLOATS = st.one_of(
    st.sampled_from(
        [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.225e-308, 1.0]
    ),
    st.floats(),
)
JOB_IDS = st.one_of(
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\t\n", "élan ✓ 😀", "", "job0"]),
    st.text(),
)
ROWS = st.tuples(FLOATS, JOB_IDS, FLOATS)
#: 0 and 1 row, short logs, and lengths on and across chunk boundaries.
LENGTHS = st.one_of(
    st.integers(0, 4),
    st.sampled_from(
        [
            _LOG_CHUNK - 1,
            _LOG_CHUNK,
            _LOG_CHUNK + 1,
            2 * _LOG_CHUNK - 1,
            2 * _LOG_CHUNK,
            2 * _LOG_CHUNK + 1,
            3 * _LOG_CHUNK + 7,
        ]
    ),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=12), length=LENGTHS)
def test_the_streamed_digest_is_the_whole_copy_digest(rows, length):
    # A long log repeats the generated rows, so every chunk holds
    # generated ids and floats.
    log = [rows[k % len(rows)] for k in range(length)]
    result = make_result(log)
    assert result.digest() == whole_copy_digest(result)


def test_an_empty_log_hashes_as_an_empty_json_list():
    assert make_result([]).digest() == whole_copy_digest(make_result([]))


def test_the_digest_of_a_long_log_holds_no_copy_of_it():
    # 20 cycles x 2 500 jobs, the size the benchmark's digest check hashes.
    log = [(float(k // 2500 + 1), f"job{k % 2500}", 1e3 + k / 7.0) for k in range(50_000)]
    result = make_result(log)
    expected = whole_copy_digest(result)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        digest = result.digest()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert digest == expected
    # One json.dumps copy of the log peaked at 16.95 MiB here.
    assert peak <= 2 * 2**20


def first_block(sim):
    return sim._pool.block_of["rack0"][0]


@pytest.mark.parametrize("ending", ["close", "finish", "with"])
def test_a_closed_simulation_is_freed_without_the_cycle_collector(ending):
    gc.collect()
    gc.disable()
    try:
        sim = ShardedSimulation(
            small_config(n_shards=2), algorithm=ProportionalSharing(capacity=150.0)
        )
        sim_ref, block_ref = weakref.ref(sim), weakref.ref(first_block(sim))
        if ending == "close":
            sim.close()
        elif ending == "finish":
            result = sim.run(3.0).finish()
            assert len(result.enforcement_log) == 3 * 6
        else:
            with sim:
                sim.run(3.0)
        del sim
        assert sim_ref() is None
        assert block_ref() is None
    finally:
        gc.enable()


def test_a_closed_simulation_still_referenced_keeps_no_arrays():
    sim = ShardedSimulation(small_config(), algorithm=ProportionalSharing(capacity=150.0))
    block_ref = weakref.ref(first_block(sim))
    sim.run(2.0).close()
    assert block_ref() is None
    assert sim.control_plane is None


class RecordingSimulation(ShardedSimulation):
    """Records, at each build, how many earlier simulations are alive."""

    built = []
    alive_at_build = []

    def __init__(self, *args, **kwargs):
        type(self).alive_at_build.append(
            sum(ref() is not None for ref in type(self).built)
        )
        super().__init__(*args, **kwargs)
        type(self).built.append(weakref.ref(self))


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(RecordingSimulation, "built", [])
    monkeypatch.setattr(RecordingSimulation, "alive_at_build", [])
    monkeypatch.setattr(fig4_sharded, "ShardedSimulation", RecordingSimulation)
    gc.collect()
    gc.disable()
    try:
        yield RecordingSimulation
    finally:
        gc.enable()


def test_fig4_sharded_frees_the_baseline_before_the_padll_phase(recording):
    fig4_sharded.run_fig4_sharded(
        n_jobs=4, stages_per_job=2, n_racks=4, n_shards=2,
        clients_per_stage=5, duration=8.0, step_period=4.0,
    )
    assert recording.alive_at_build == [0, 0]


def test_the_sharded_sweep_frees_each_world_before_the_next(recording, tmp_path):
    outcomes = SweepRunner(
        jobs=1, cache_dir=tmp_path, use_cache=False, log=lambda _line: None
    ).run(grid("sharded", quick=True))
    assert len(outcomes) == 2
    assert recording.alive_at_build == [0, 0, 0, 0]


def test_the_default_size_cli_run_is_the_ci_literal():
    assert fig4_sharded.run_fig4_sharded(n_shards=1).digest() == DEFAULT_CLI_DIGEST
