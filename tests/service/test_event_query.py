"""``filter_events`` walks newest-first and renders only what it returns.

The query answers ``/api/v1/events``: ``limit`` keeps the newest matches
in emission order.  The walk stops at ``limit`` matches and calls
``to_dict`` only on them, so a ``control.cycle`` row is rendered only
when it is in the answer.  Its answers equal the copy-every-match filter
it replaced, kept here as the reference, over generated histories.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane
from repro.service.config import job_of
from repro.service.snapshot import filter_events
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.events import Event

from tests.core.test_controller import make_stage


def reference_filter(events, kind=None, job=None, since=None, until=None, limit=None):
    """Every match copied in emission order, then all but the newest
    ``limit`` dropped."""

    def matches_job(fields):
        for key in ("job", "job_id", "endpoint", "stage", "address"):
            value = fields.get(key)
            if value == job or (isinstance(value, str) and job_of(value) == job):
                return True
        return False

    matched = []
    for event in events:
        if kind is not None and event.kind != kind:
            continue
        if since is not None and event.time < since:
            continue
        if until is not None and event.time > until:
            continue
        if job is not None and not matches_job(event.fields):
            continue
        matched.append(event.to_dict())
    if limit is not None and limit >= 0:
        matched = matched[len(matched) - min(limit, len(matched)):]
    return matched


def _cycle_rows():
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(algorithm=ProportionalSharing(capacity=100.0), telemetry=telemetry)
    plane.register(make_stage("jobA/s0", "jobA"))
    for t in range(4):
        plane.tick(float(t))
    return list(telemetry.events.events)


CYCLE_ROWS = _cycle_rows()

_jobs = st.sampled_from(["jobA", "jobB", "jobC"])
_values = st.one_of(
    _jobs,
    _jobs.map(lambda job: f"{job}/s0"),
    st.integers(0, 3),
    st.none(),
)
_plain = st.builds(
    Event,
    st.sampled_from(["control.evict", "rpc.drop", "stage.orphaned", "control.cycle"]),
    st.floats(0.0, 10.0),
    st.dictionaries(
        st.sampled_from(["job", "job_id", "endpoint", "stage", "address", "reason"]),
        _values,
        max_size=3,
    ),
)
_events = st.lists(st.one_of(_plain, st.sampled_from(CYCLE_ROWS)), max_size=30)
_bounds = st.one_of(st.none(), st.floats(0.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(
    _events,
    st.one_of(st.none(), st.sampled_from(["control.evict", "control.cycle", "rpc.drop"])),
    st.one_of(st.none(), _jobs),
    _bounds,
    _bounds,
    st.one_of(st.none(), st.integers(-2, 12)),
)
def test_the_newest_first_walk_answers_as_the_full_copy_did(
    events, kind, job, since, until, limit
):
    filters = dict(kind=kind, job=job, since=since, until=until, limit=limit)
    assert filter_events(events, **filters) == reference_filter(events, **filters)


class Counted(Event):
    __slots__ = ()
    rendered = 0

    def to_dict(self):
        Counted.rendered += 1
        return super().to_dict()


def test_only_the_answer_is_rendered():
    history = [Counted("tick", float(t), {"job": "jobA"}) for t in range(1000)]
    Counted.rendered = 0
    answer = filter_events(history, kind="tick", job="jobA", limit=3)
    assert [doc["time"] for doc in answer] == [997.0, 998.0, 999.0]
    assert Counted.rendered == 3
