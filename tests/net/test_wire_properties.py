"""Properties of the wire codec and the frame parser under generated input.

The example tests pin what the codec does for the values somebody thought
of; these state what it must do for all of them: every registered value
and container survives a round trip, the stdlib's own canonical JSON is
what a plain document encodes to, a frame stream parses the same however
it is chunked, and nothing a peer can send -- truncated, bit-flipped, or
simply invented -- raises anything but ``WireError``, and a reply record
that decodes is one the control loop can compute with.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differentiation import ClassifierRule
from repro.core.controller import ControlPlane
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    LocalController,
)
from repro.core.requests import OperationClass, OperationType
from repro.core.rpc import (
    CollectStats,
    CreateChannel,
    EnforceRate,
    InstallRule,
    Ping,
    RemoveChannel,
    RemoveRule,
)
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.telemetry import Telemetry, TelemetryConfig
from repro.core.wire import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_PUSH,
    FRAME_REPLY,
    FRAME_REQUEST,
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_payload,
    encode_request,
    registered_tags,
)
from repro.errors import WireError

# -- values --------------------------------------------------------------------

floats = st.floats(allow_nan=False)
names = st.text(min_size=1, max_size=12)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=20)
)
enums = st.one_of(st.sampled_from(OperationType), st.sampled_from(OperationClass))
optional_floats = st.one_of(st.none(), floats)

rules = st.builds(
    ClassifierRule,
    name=names,
    channel_id=names,
    op_types=st.frozensets(st.sampled_from(OperationType), min_size=1, max_size=6),
    op_classes=st.one_of(
        st.none(), st.frozensets(st.sampled_from(OperationClass), min_size=1)
    ),
    job_ids=st.one_of(st.none(), st.frozensets(names, min_size=1, max_size=4)),
    priority=st.integers(-5, 5),
)
snapshots = st.builds(ChannelSnapshot, names, floats, floats, floats, floats)
aggregates = st.lists(st.tuples(names, floats, st.integers(0, 64)), max_size=3).map(
    lambda rows: AggregateStats(*(tuple(row[i] for row in rows) for i in range(3)))
)
registered = st.one_of(
    enums,
    rules,
    snapshots,
    aggregates,
    st.builds(Ping, scalars),
    st.builds(CollectStats, floats),
    st.builds(EnforceRate, names, floats, floats, optional_floats),
    st.builds(CreateChannel, names, floats, floats, optional_floats),
    st.builds(InstallRule, rules),
    st.builds(RemoveRule, names),
    st.builds(RemoveChannel, names),
    st.builds(CollectAggregate, floats, names, floats),
    st.builds(
        EnforceJobRateBatch,
        names,
        floats,
        st.lists(st.tuples(names, floats, optional_floats), max_size=4).map(tuple),
    ),
    st.builds(
        StageIdentity,
        names,
        names,
        st.text(max_size=8),
        st.integers(0, 2**22),
        st.text(max_size=8),
    ),
    st.builds(StageStats, names, floats, st.lists(snapshots, max_size=3).map(tuple)),
    aggregates,
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(["!t", "f", "to", "msg"]))
values = st.recursive(
    st.one_of(scalars, registered),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.frozensets(st.one_of(scalars, enums), max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_round_trip_restores_the_value(value):
    data = encode_payload(value)
    back = decode_payload(data)
    assert back == value
    # == cannot tell 1 from 1.0 or 0.0 from -0.0; the bytes can.
    assert encode_payload(back) == data


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(max_size=20), st.characters(min_codepoint=128), scalars),
    registered,
)
def test_a_request_envelope_is_the_encoded_dict(address, message):
    # Non-ASCII addresses are escaped as the dict walk escapes them; a
    # non-str address travels through the dict walk itself.
    expected = encode_payload({"to": address, "msg": message})
    assert encode_request(address, message) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        st.floats(allow_nan=True),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
        ),
        max_leaves=6,
    )
)
def test_nan_and_infinities_survive_by_their_bytes(value):
    data = encode_payload(value)
    assert encode_payload(decode_payload(data)) == data


plain_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=20)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6).filter(lambda k: k != "!t"), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(plain_json)
def test_a_plain_document_is_the_stdlib_canonical_json(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert encode_payload(value) == expected.encode("ascii")


# -- hostile payloads ---------------------------------------------------------------

def decodes_or_refuses(data: bytes) -> None:
    try:
        decode_payload(data)
    except WireError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_raise_only_wire_error(data):
    decodes_or_refuses(data)


tags = st.one_of(
    st.sampled_from(registered_tags() + ("tuple", "frozenset", "dict", "NoSuchTag")),
    st.none(),
    st.integers(),
    st.lists(st.integers(), max_size=1),
)
invented = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=8),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.builds(lambda tag, body: {"!t": tag, "f": body}, tags, inner),
        st.builds(lambda tag: {"!t": tag}, tags),
    ),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(invented)
def test_invented_tagged_documents_raise_only_wire_error(document):
    decodes_or_refuses(json.dumps(document).encode("utf-8"))


@st.composite
def hostile_records(draw):
    """A reply record of the right arity whose fields are anything: invented
    values, tuples of them, or well-typed pieces in the wrong places."""
    tag, arity = draw(
        st.sampled_from([("AggregateStats", 3), ("StageStats", 3), ("ChannelSnapshot", 5)])
    )
    field = st.one_of(
        invented,
        st.lists(invented, max_size=3).map(lambda items: {"!t": "tuple", "f": items}),
        st.lists(
            st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans()),
            max_size=3,
        ).map(lambda items: {"!t": "tuple", "f": items}),
        st.builds(
            lambda body: {"!t": "ChannelSnapshot", "f": body},
            st.lists(
                st.one_of(st.text(max_size=4), st.floats(), st.booleans()),
                min_size=5,
                max_size=5,
            ),
        ),
    )
    return {"!t": tag, "f": [draw(field) for _ in range(arity)]}


def plane_reads(value, decoded: bool = True) -> None:
    """What the control loop does with a reply: fold it, and render the
    ``control.cycle`` view of it that a row would hold.  A stage's window
    is folded by its local, whose aggregate the plane then reads (a local
    may fold a window to NaN, which the plane's vetting refuses; a decoded
    aggregate never carries one)."""
    if isinstance(value, ChannelSnapshot):
        value = StageStats("job0", 1.0, (value,))
    if isinstance(value, StageStats):
        local = LocalController("job0")
        local.register_endpoint(StageIdentity("s0", "job0"), lambda message: value)
        for snap in value.channels:
            reply = local.handle(CollectAggregate(1.0, snap.channel_id, 1.0))
            plane_reads(reply, decoded=False)
    elif isinstance(value, AggregateStats):
        plane = ControlPlane()
        plane.attach_local("rack0", lambda message: None)
        plane.vector_job_ids()
        plane._job_demand_vec({"rack0": value})
        telemetry = Telemetry(TelemetryConfig(trace=False))
        plane._emit_cycle(telemetry, 0.0, {"rack0": value}, None, {}, False)
        telemetry.events.events[-1].to_dict()
        demand = np.asarray(value.demand, dtype=np.float64)
        assert len(value.job_ids) == demand.size
        if decoded:
            assert not np.isnan(demand).any()


@settings(max_examples=500, deadline=None)
@given(hostile_records())
def test_a_hostile_reply_record_is_refused_where_it_is_decoded(document):
    try:
        value = decode_payload(json.dumps(document).encode("utf-8"))
    except WireError:
        return
    plane_reads(value)


# -- framing --------------------------------------------------------------------------

frames = st.tuples(
    st.sampled_from([FRAME_HELLO, FRAME_REQUEST, FRAME_REPLY, FRAME_ERROR, FRAME_PUSH]),
    st.integers(0, 2**64 - 1),
    st.binary(max_size=80),
)
streams = st.lists(frames, min_size=1, max_size=6)


def parse_whole(stream):
    data = b"".join(encode_frame(*frame) for frame in stream)
    return data, FrameDecoder().feed(data)


def feed_in_chunks(data: bytes, cuts):
    """Feed ``data`` cut at ``cuts``; returns (frames, the decoder)."""
    decoder = FrameDecoder()
    out = []
    edges = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    for start, stop in zip(edges, edges[1:]):
        out.extend(decoder.feed(data[start:stop]))
    return out, decoder


@settings(max_examples=300, deadline=None)
@given(streams, st.lists(st.integers(0, 700), max_size=12))
def test_chunking_does_not_change_the_frames(stream, cuts):
    data, whole = parse_whole(stream)
    assert [(f.kind, f.corr_id, f.payload) for f in whole] == stream
    chunked, decoder = feed_in_chunks(data, cuts)
    assert chunked == whole
    assert decoder.pending == 0


@settings(max_examples=300, deadline=None)
@given(streams, st.integers(0, 700), st.lists(st.integers(0, 700), max_size=6))
def test_a_truncated_stream_yields_a_prefix_and_waits(stream, keep, cuts):
    data, whole = parse_whole(stream)
    keep = min(keep, len(data))
    got, decoder = feed_in_chunks(data[:keep], cuts)
    assert got == whole[: len(got)]
    assert sum(20 + len(f.payload) for f in got) + decoder.pending == keep


@settings(max_examples=500, deadline=None)
@given(streams, st.integers(0, 8 * 700), st.lists(st.integers(0, 700), max_size=6))
def test_a_flipped_bit_yields_frames_or_wire_error(stream, bit, cuts):
    data, _ = parse_whole(stream)
    bit %= 8 * len(data)
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    try:
        got, _ = feed_in_chunks(bytes(flipped), cuts)
    except WireError:
        return
    for frame in got:
        decodes_or_refuses(frame.payload)
