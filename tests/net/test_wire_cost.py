"""A control round trip's layers, as executed counts (a stopwatch cannot
hold a microsecond steady on a shared machine; a count repeats exactly).

One ``CollectStats`` request and its ``StageStats`` reply cross the codec
four times -- encoded and decoded once each.  The one-walk codec enters
43 Python frames doing so (CPython 3.11; later versions inline the
comprehensions and enter fewer) and none of them in the ``json``
package's Python layer; the ``encode_value`` -> ``json.dumps`` /
``json.loads`` -> ``decode_value`` pair it replaced entered 87.  The reply
hand-off is a bare lock: a round trip builds no ``threading.Event`` and
no ``Condition``.  A slide back on either fails here, before any
benchmark sees it.
"""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.core.rpc import CollectStats
from repro.core.stage import ChannelSnapshot, StageStats
from repro.core.wire import decode_payload, encode_payload
from repro.net import WireConnection

REQUEST = {"to": "job0/s0", "msg": CollectStats(now=1001.0)}
REPLY = StageStats(
    job_id="job0",
    window=1.0,
    channels=(ChannelSnapshot("metadata", 100.0, 120.5, 20.0, 128.0),),
)


def python_frames(function, argument):
    """(name, filename) of every Python frame ``function(argument)`` enters
    (``co_name``: ``co_qualname`` is 3.11+)."""
    frames = []

    def profiler(frame, event, arg):
        if event == "call":
            frames.append((frame.f_code.co_name, frame.f_code.co_filename))

    sys.setprofile(profiler)
    try:
        function(argument)
    finally:
        sys.setprofile(None)
    return frames


def test_request_and_reply_cross_the_codec_in_bounded_frames():
    request_bytes, reply_bytes = encode_payload(REQUEST), encode_payload(REPLY)
    assert decode_payload(request_bytes) == REQUEST
    assert decode_payload(reply_bytes) == REPLY
    frames = (
        python_frames(encode_payload, REQUEST)
        + python_frames(decode_payload, request_bytes)
        + python_frames(encode_payload, REPLY)
        + python_frames(decode_payload, reply_bytes)
    )
    assert len(frames) <= 48, [name for name, _ in frames]
    # One walk: the text is written and the objects revived without the
    # json package's Python layer (JSONEncoder.encode / iterencode,
    # loads, JSONDecoder.decode / raw_decode) ever running.
    in_json = [name for name, filename in frames if "/json/" in filename]
    assert in_json == []


def test_decode_enters_one_frame_per_object_plus_its_constructor():
    # decode_payload, then per tagged object: the hook, the reviver, the
    # dataclass __init__.  The envelope dict costs the hook alone.
    frames = python_frames(decode_payload, encode_payload(REQUEST))
    assert len(frames) <= 5, [name for name, _ in frames]


@pytest.fixture()
def connected_pair():
    left, right = socket.socketpair()
    serving = WireConnection(
        right, lambda address: (lambda message: REPLY), name="serving"
    ).start()
    calling = WireConnection(left, lambda address: None, name="calling").start()
    calling.handshake()
    serving.handshake()
    yield calling
    calling.close()
    serving.close()


def test_a_round_trip_builds_no_event_and_no_condition(connected_pair, monkeypatch):
    calling = connected_pair
    assert calling.request("job0/s0", CollectStats(now=1.0)) == REPLY  # warm
    built = []
    for cls in (threading.Event, threading.Condition):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            built.append(_name)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for tick in range(3):
        assert calling.request("job0/s0", CollectStats(now=float(tick))) == REPLY
    assert built == []
    # The counters do see one when it is built.
    threading.Event()
    assert built == ["Event", "Condition"]
