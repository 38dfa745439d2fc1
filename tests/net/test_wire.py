"""Wire codec contracts: exact round trips, framing, handshake refusal.

The socket fabric can only be bit-identical to the in-proc one if the
codec is *lossless*: every float, tuple, frozenset, enum, and registered
dataclass must come back equal after a frame round trip.  These tests
pin that, plus the framing layer's refusal behaviour (oversized frames,
bad magic, foreign versions) that the transport's failure-edge tests
build on.
"""

from __future__ import annotations

import math

import pytest

from repro.core.differentiation import ClassifierRule
from repro.core.hierarchy import AggregateStats, CollectAggregate
from repro.core.requests import OperationClass, OperationType
from repro.core.rpc import CollectStats, CreateChannel, EnforceRate, Ping
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.core.wire import (
    FRAME_HELLO,
    FRAME_REQUEST,
    HEADER_SIZE,
    MAX_FRAME,
    WIRE_VERSION,
    Frame,
    FrameDecoder,
    check_hello,
    decode_payload,
    encode_frame,
    encode_payload,
    error_payload,
    hello_payload,
    raise_error,
)
from repro.errors import PolicyError, RPCError, StageNotRegistered, WireError


def round_trip(value):
    return decode_payload(encode_payload(value))


class TestValueRoundTrips:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 2**63, "s", "", "päth/ü"):
            assert round_trip(value) == value

    def test_floats_are_exact(self):
        for value in (
            math.pi,
            1 / 3,
            1e-308,
            1.7976931348623157e308,
            -0.0,
            123456.789012345,
        ):
            out = round_trip(value)
            assert out == value
            assert math.copysign(1.0, out) == math.copysign(1.0, value)

    def test_infinities_and_nan(self):
        assert round_trip(float("inf")) == float("inf")
        assert round_trip(float("-inf")) == float("-inf")
        assert math.isnan(round_trip(float("nan")))

    def test_containers(self):
        assert round_trip((1, "a", (2.5, None))) == (1, "a", (2.5, None))
        assert round_trip([1, [2, [3]]]) == [1, [2, [3]]]
        assert round_trip(frozenset({"x", "y"})) == frozenset({"x", "y"})
        assert round_trip({"k": (1, 2), "n": {"deep": 3.5}}) == {
            "k": (1, 2),
            "n": {"deep": 3.5},
        }

    def test_enums(self):
        assert round_trip(OperationType.OPEN) is OperationType.OPEN
        assert round_trip(OperationClass.METADATA) is OperationClass.METADATA

    def test_verbs(self):
        for verb in (
            Ping(payload="hello"),
            CollectStats(now=12.25),
            EnforceRate(channel_id="metadata", rate=512.5, now=3.0, burst=None),
            CreateChannel(channel_id="m", rate=math.inf, now=0.0, burst=8.0),
            CollectAggregate(now=9.0, channel="metadata", loop_interval=0.25),
        ):
            assert round_trip(verb) == verb

    def test_classifier_rule(self):
        rule = ClassifierRule(
            name="md",
            channel_id="metadata",
            op_types=frozenset({OperationType.OPEN, OperationType.STAT}),
            op_classes=frozenset({OperationClass.METADATA}),
            path_prefixes=("/pfs/scratch", "/pfs/data"),
            priority=7,
        )
        assert round_trip(rule) == rule

    def test_stage_stats(self):
        stats = StageStats(
            job_id="job0",
            window=1.0,
            channels=(
                ChannelSnapshot(
                    channel_id="metadata",
                    granted_ops=100.0,
                    enqueued_ops=120.0,
                    backlog=20.0,
                    rate_limit=128.0,
                ),
            ),
        )
        assert round_trip(stats) == stats

    def test_aggregate_stats(self):
        stats = AggregateStats(("job0", "job1"), (180.0, 60.5), (4, 2))
        out = round_trip(stats)
        assert out == stats
        assert isinstance(out, AggregateStats)

    def test_identity(self):
        identity = StageIdentity("job0/s1", "job0", hostname="n1", pid=42)
        assert round_trip(identity) == identity

    def test_unregistered_class_refused(self):
        class Mystery:
            pass

        with pytest.raises(WireError, match="no wire codec"):
            encode_payload(Mystery())

    def test_unknown_tag_refused(self):
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_payload(b'{"!t":"NoSuchTag","f":[]}')

    def test_malformed_payload_refused(self):
        with pytest.raises(WireError, match="malformed frame payload"):
            decode_payload(b"{not json")


class TestFraming:
    def test_round_trip(self):
        payload = encode_payload({"to": "s0", "msg": Ping()})
        data = encode_frame(FRAME_REQUEST, 17, payload)
        frames = FrameDecoder().feed(data)
        assert len(frames) == 1
        assert frames[0].kind == FRAME_REQUEST
        assert frames[0].corr_id == 17
        assert decode_payload(frames[0].payload) == {"to": "s0", "msg": Ping()}

    def test_byte_at_a_time(self):
        data = encode_frame(FRAME_REQUEST, 3, encode_payload([1, 2.5, "x"]))
        data += encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload("p")))
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i : i + 1]))
        assert [frame.kind for frame in frames] == [FRAME_REQUEST, FRAME_HELLO]
        assert decoder.pending == 0

    def test_pending_counts_partial_frame(self):
        data = encode_frame(FRAME_REQUEST, 1, encode_payload("abc"))
        decoder = FrameDecoder()
        assert decoder.feed(data[:-2]) == []
        assert decoder.pending == len(data) - 2

    def test_oversized_declared_length_refused(self):
        import struct

        header = struct.pack(
            "!4sBBHQI", b"PDLL", WIRE_VERSION, FRAME_REQUEST, 0, 1, MAX_FRAME + 1
        )
        with pytest.raises(WireError, match="exceeds MAX_FRAME"):
            FrameDecoder().feed(header)

    def test_oversized_encode_refused(self):
        with pytest.raises(WireError, match="exceeds MAX_FRAME"):
            encode_frame(FRAME_REQUEST, 1, b"x" * (MAX_FRAME + 1))

    def test_bad_magic_refused(self):
        data = bytearray(encode_frame(FRAME_REQUEST, 1, b"{}"))
        data[:4] = b"EVIL"
        with pytest.raises(WireError, match="bad frame magic"):
            FrameDecoder().feed(bytes(data))

    def test_foreign_version_fatal_except_hello(self):
        import struct

        body = encode_payload(hello_payload())
        hello = struct.pack(
            "!4sBBHQI", b"PDLL", WIRE_VERSION + 1, FRAME_HELLO, 0, 0, len(body)
        ) + body
        frames = FrameDecoder().feed(hello)
        assert frames[0].version == WIRE_VERSION + 1  # parsed, not fatal
        request = struct.pack(
            "!4sBBHQI", b"PDLL", WIRE_VERSION + 1, FRAME_REQUEST, 0, 1, 2
        ) + b"{}"
        with pytest.raises(WireError, match="frame version"):
            FrameDecoder().feed(request)


class TestHandshake:
    def test_matching_hello_accepted(self):
        frame = Frame(
            kind=FRAME_HELLO,
            corr_id=0,
            payload=encode_payload(hello_payload("peer")),
        )
        doc = check_hello(frame)
        assert doc["peer"] == "peer"

    def test_version_mismatch_refused(self):
        stale = dict(hello_payload())
        stale["version"] = WIRE_VERSION + 1
        frame = Frame(
            kind=FRAME_HELLO, corr_id=0, payload=encode_payload(stale)
        )
        with pytest.raises(WireError, match="version mismatch"):
            check_hello(frame)

    def test_non_hello_first_frame_refused(self):
        frame = Frame(kind=FRAME_REQUEST, corr_id=1, payload=b"{}")
        with pytest.raises(WireError, match="expected HELLO"):
            check_hello(frame)


class TestErrorTransport:
    def test_known_error_travels_by_name(self):
        doc = round_trip(error_payload(StageNotRegistered("s0 gone")))
        with pytest.raises(StageNotRegistered, match="s0 gone"):
            raise_error(doc)
        doc = round_trip(error_payload(PolicyError("bad rule")))
        with pytest.raises(PolicyError, match="bad rule"):
            raise_error(doc)

    def test_unknown_error_degrades_to_rpcerror(self):
        with pytest.raises(RPCError, match="boom"):
            raise_error({"error": "ValueError", "detail": "boom"})
        with pytest.raises(RPCError):
            raise_error({"error": "NoSuchError", "detail": "x"})

    def test_header_size_is_stable(self):
        # The layout is part of the protocol; changing it is a
        # WIRE_VERSION bump, not a silent edit.
        assert HEADER_SIZE == 20
