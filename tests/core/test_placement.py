"""Rack placement has one owner: :func:`repro.core.hierarchy.rack_index`.

The replay harness and the sharded coordinator each used to spell the
arithmetic; both numbered jobs in registration order, so the one
function must agree with both old formulas everywhere.
"""

from __future__ import annotations

import pytest

from repro.core.hierarchy import PLACEMENTS, check_placement, rack_index
from repro.errors import ConfigError


def replay_world_rack(placement, job, stage, n_racks):
    """``ReplayWorld._rack_for_job`` / ``_rack_for_stage`` before the move:
    ``job`` is the job's position in start order."""
    if placement == "job":
        return job % n_racks
    return (job + stage) % n_racks


def sharded_config_rack(placement, job, stage, n_racks):
    """``ShardedConfig.rack_of`` before the move."""
    if placement == "split":
        return (job + stage) % n_racks
    return job % n_racks


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("n_racks", [1, 2, 3, 4, 7, 32])
def test_rack_index_matches_both_old_formulas(placement, n_racks):
    for n_jobs in (1, 2, 5, 9):
        for stages_per_job in (1, 2, 4):
            for job in range(n_jobs):
                for stage in range(stages_per_job):
                    rack = rack_index(placement, job, stage, n_racks)
                    assert rack == replay_world_rack(placement, job, stage, n_racks)
                    assert rack == sharded_config_rack(placement, job, stage, n_racks)
                    assert 0 <= rack < n_racks


def test_one_stage_per_job_places_alike():
    for n_racks in (1, 3, 8):
        assert [rack_index("split", j, 0, n_racks) for j in range(20)] == [
            rack_index("job", j, 0, n_racks) for j in range(20)
        ]


def test_unknown_placement_is_refused():
    assert check_placement("split") == "split"
    with pytest.raises(ConfigError, match="round-robin"):
        check_placement("round-robin")
