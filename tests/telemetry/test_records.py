"""A span or event is data in one form: ``to_dict`` / ``from_dict``.

The JSONL exporters, the service's span and event queries, the audit
sink and a stage host's telemetry push all carry that form, so a record
must survive the round trip exactly, through JSON included.
"""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.events import Event
from repro.telemetry.trace import Span

_names = st.text(min_size=1, max_size=12)
_times = st.floats(allow_nan=False, allow_infinity=False, width=64)
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | _times
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_mappings = st.dictionaries(st.text(max_size=8), _values, max_size=4)


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@given(_names, _names, _times, _times, _mappings)
def test_span_round_trips(trace_id, name, start, end, attrs):
    span = Span(trace_id, name, start, end, attrs)
    doc = span.to_dict()
    assert doc == {
        "trace_id": trace_id, "name": name, "start": start, "end": end, "attrs": attrs,
    }
    for back in (Span.from_dict(doc), Span.from_dict(json.loads(json.dumps(doc)))):
        assert _same(back.to_dict(), doc)
        assert back.attrs is not attrs


@given(_names, _times, _mappings)
def test_event_round_trips(kind, time, fields):
    event = Event(kind, time, fields)
    doc = event.to_dict()
    assert doc == {"kind": kind, "time": time, "fields": fields}
    for back in (Event.from_dict(doc), Event.from_dict(json.loads(json.dumps(doc)))):
        assert _same(back.to_dict(), doc)
        assert back.fields is not fields


def test_from_dict_coerces_what_json_may_narrow():
    # JSON writes 2.0 as 2.0, but a hand-written document may say 2.
    span = Span.from_dict({"trace_id": "t", "name": "n", "start": 1, "end": 2})
    assert (span.start, span.end, span.attrs) == (1.0, 2.0, {})
    assert isinstance(span.start, float)
    event = Event.from_dict({"kind": "k", "time": 3})
    assert (event.time, event.fields) == (3.0, {})
    assert isinstance(event.time, float)
