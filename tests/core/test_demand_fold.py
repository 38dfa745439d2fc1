"""The hierarchical plane's one-pass demand fold, bit for bit.

``ControlPlane._job_demand_vec`` folds every local's demand
partials with one ``np.bincount`` over their concatenation.  The
reference below is the per-local fold it replaced: a zero vector, then
one ``demand[i] += partial`` per reply entry in stats order (a reply's
``demand`` a tuple or an ndarray alike), each partial times its local's
staleness discount, jobs the plane no longer knows skipped.  The two
must agree to the last bit for any mix and order of locals.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import STALE_HALFLIFE
from repro.core.controller import ControlPlane
from repro.core.hierarchy import AggregateStats
from repro.core.stage import StageIdentity

N_JOBS = 6
KNOWN = tuple(f"job{j}" for j in range(N_JOBS))
UNKNOWN = ("ghost0", "ghost1")


def reference_fold(plane, stats):
    """The per-local fold, one add per reply entry."""
    demand = np.zeros(len(plane.vector_job_ids()))
    halflife = STALE_HALFLIFE * plane.config.loop_interval
    ages = plane._stats_age
    pos = {job_id: i for i, job_id in enumerate(plane.vector_job_ids())}
    for local_id, agg in stats.items():
        if not isinstance(agg, AggregateStats):
            continue
        discount = 1.0
        if ages:
            age = ages.get(local_id, 0.0)
            if age > 0.0:
                discount = 0.5 ** (age / halflife)
        for job_id, job_demand in zip(agg.job_ids, agg.demand):
            i = pos.get(job_id)
            if i is None:
                continue
            if discount != 1.0:
                job_demand = job_demand * discount
            demand[i] += job_demand
    return demand


def make_plane():
    plane = ControlPlane()
    for r in range(3):
        plane.attach_local(f"rack{r}", lambda message: None)
    for j, job_id in enumerate(KNOWN):
        for s in range(1 + j % 3):
            plane.register_stage(StageIdentity(f"{job_id}-s{s}", job_id), f"rack{(j + s) % 3}")
    return plane


demands = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
)
ages = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=20.0, allow_nan=False),
)


@st.composite
def local_reports(draw):
    """One local: its reply's demand kind, the jobs it reports (each once,
    any order, unknown ones included), their partials and the stats' age."""
    kind = draw(st.sampled_from(["array", "tuple", "other"]))
    job_ids = tuple(draw(st.permutations(KNOWN + UNKNOWN))[: draw(st.integers(0, 8))])
    partials = [draw(demands) for _ in job_ids]
    return kind, job_ids, partials, draw(ages)


def build_stats(reports):
    stats, stats_age = {}, {}
    for k, (kind, job_ids, partials, age) in enumerate(reports):
        local_id = f"local{k}"
        if kind == "other":
            stats[local_id] = object()  # not an aggregate: skipped
        else:
            demand = tuple(partials)
            if kind == "array":
                demand = np.array(partials, dtype=np.float64)
            stats[local_id] = AggregateStats(job_ids, demand, tuple(1 for _ in job_ids))
        if age is not None:
            stats_age[local_id] = age
    return stats, stats_age


@settings(max_examples=300, deadline=None)
@given(reports=st.lists(local_reports(), max_size=6))
def test_one_pass_fold_is_the_per_local_fold_bit_for_bit(reports):
    plane = make_plane()
    stats, stats_age = build_stats(reports)
    plane._stats_age = stats_age
    expected = reference_fold(plane, stats)
    first = plane._job_demand_vec(stats)
    # The second call takes the cached index.
    again = plane._job_demand_vec(stats)
    assert first.dtype == again.dtype == np.float64
    assert first.tobytes() == expected.tobytes()
    assert again.tobytes() == expected.tobytes()


def test_empty_stats_fold_to_float_zeros():
    plane = make_plane()
    plane.vector_job_ids()
    demand = plane._job_demand_vec({})
    assert demand.dtype == np.float64
    assert demand.tobytes() == np.zeros(N_JOBS).tobytes()


def test_the_cached_index_follows_placement():
    # A job that registers after the index was cached takes its own bin.
    plane = make_plane()
    plane.vector_job_ids()
    layout = ("job0", "late")
    stats = {
        "rack0": AggregateStats(layout, np.array([2.0, 3.0]), (1, 1))
    }
    assert plane._job_demand_vec(stats).tolist() == [2.0] + [0.0] * (N_JOBS - 1)
    plane.register_stage(StageIdentity("late-s0", "late"), "rack1")
    plane.vector_job_ids()
    assert plane._job_demand_vec(stats).tolist() == [2.0] + [0.0] * (N_JOBS - 1) + [3.0]
    assert plane._job_demand_vec(stats).tobytes() == reference_fold(plane, stats).tobytes()
