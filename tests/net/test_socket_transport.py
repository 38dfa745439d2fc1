"""Socket transport failure edges: the wire must fail loudly and cleanly.

Each test drives a real localhost TCP pair.  The edges pinned here are
the ones an out-of-process control plane actually meets: a worker dying
mid-frame, a corrupt or hostile length field, a peer speaking the wrong
protocol version, and replies landing after their request's deadline
already expired (stale correlation ids must be discarded, never
mistaken for fresh replies).
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest

from repro.core.rpc import CollectStats, Ping, StageEndpoint
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.wire import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_REPLY,
    FRAME_REQUEST,
    MAX_FRAME,
    WIRE_VERSION,
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_payload,
    hello_payload,
)
from repro.errors import RPCError, StageNotRegistered, WireError
from repro.net import RemoteEndpoint, SocketTransport, WireConnection


def _drain_frames(sock, decoder, want, timeout=5.0):
    """Read frames off a raw socket until ``want`` arrived (or timeout)."""
    sock.settimeout(timeout)
    frames = []
    while len(frames) < want:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


class _Pair:
    """A listening transport plus captured accepted connections."""

    def __init__(self, **listen_kwargs):
        self.transport = SocketTransport()
        self.accepted = []
        self._seen = threading.Event()
        self.host, self.port = self.transport.listen(
            "127.0.0.1", 0, on_connect=self._on_connect, **listen_kwargs
        )

    def _on_connect(self, connection):
        self.accepted.append(connection)
        self._seen.set()

    def wait_accepted(self, timeout=5.0):
        assert self._seen.wait(timeout), "peer never connected"
        return self.accepted[-1]

    def close(self):
        self.transport.close()


@pytest.fixture()
def pair():
    p = _Pair()
    yield p
    p.close()


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestRoundTrip:
    def test_reverse_tunnel_request(self, pair):
        """The dialing side's endpoints answer requests from the listener."""
        worker = SocketTransport()
        stage = DataPlaneStage(
            StageIdentity("job0/s0", "job0"), sink=lambda req: None
        )
        stage.create_channel("metadata", 100.0, now=0.0)
        worker.bind("job0/s0", StageEndpoint(stage).handle)
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.bind("job0/s0", RemoteEndpoint(accepted, "job0/s0", None))
        stats = pair.transport.call("job0/s0", CollectStats(now=1.0))
        assert stats.job_id == "job0"
        assert stats.channels[0].channel_id == "metadata"
        worker.close()

    def test_unbound_address_raises_remotely(self, pair):
        worker = SocketTransport()
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.bind("ghost", RemoteEndpoint(accepted, "ghost", None))
        with pytest.raises(StageNotRegistered, match="'ghost' not bound"):
            pair.transport.call("ghost", Ping())
        worker.close()

    def test_accepted_connection_keeps_the_dialers_hello_name(self, pair):
        worker = SocketTransport()
        dialed = worker.connect(pair.host, pair.port, name="host7")
        accepted = pair.wait_accepted()
        assert _wait(lambda: accepted.peer == "host7")
        assert dialed.peer == accepted.name  # both ends learn the other's
        worker.close()

    def test_threads_join_on_close(self):
        pair = _Pair()
        worker = SocketTransport()
        worker.connect(pair.host, pair.port, name="worker")
        pair.wait_accepted()
        worker.close()
        pair.close()
        assert _wait(
            lambda: not [
                t
                for t in threading.enumerate()
                if t.name.startswith("padll-net")
            ]
        ), [t.name for t in threading.enumerate()]


class TestRequestFromTheReaderThread:
    def test_a_handler_calling_back_over_its_own_link_fails_at_once(self, pair):
        """The controller's reader thread serves a host's request; a handler
        that requests back over that link would wait for a reply only that
        thread can read.  It fails at once, not after the deadline."""
        worker = SocketTransport()
        dialed = worker.connect(pair.host, pair.port, name="host0")
        accepted = pair.wait_accepted()
        accepted.deadline = 3.0
        pair.transport.bind("job0/s0", RemoteEndpoint(accepted, "job0/s0", None))
        started = time.monotonic()
        with pytest.raises(RPCError, match="own reader"):
            dialed.request("job0/s0", CollectStats(now=1.0), 10.0)
        assert time.monotonic() - started < 1.0
        # The link survives, and the same request from any other thread works.
        with pytest.raises(StageNotRegistered, match="'job0/s0' not bound"):
            pair.transport.call("job0/s0", Ping())
        worker.close()


class TestMidFrameDisconnect:
    def test_partial_frame_then_eof(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        # A frame whose header promises more payload than ever arrives.
        partial = encode_frame(FRAME_ERROR, 9, b'{"error":"x","detail":"y"}')
        raw.sendall(partial[:-5])
        raw.close()
        assert _wait(lambda: accepted.closed)
        assert "mid-frame" in accepted.close_reason
        assert "bytes buffered" in accepted.close_reason

    def test_clean_eof_is_not_mid_frame(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        raw.close()
        assert _wait(lambda: accepted.closed)
        assert accepted.close_reason == "peer disconnected"


class TestOversizedFrame:
    def test_hostile_length_field_refused(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        decoder = FrameDecoder()
        _drain_frames(raw, decoder, 1)  # the listener's own HELLO
        # Header declares a payload far beyond MAX_FRAME; the peer must
        # refuse *before* buffering, with an ERROR frame explaining why.
        evil = struct.pack(
            "!4sBBHQI", b"PDLL", WIRE_VERSION, FRAME_ERROR, 0, 0, MAX_FRAME + 1
        )
        raw.sendall(evil)
        frames = _drain_frames(raw, decoder, 1)
        assert frames, "expected an ERROR frame before teardown"
        doc = decode_payload(frames[-1].payload)
        assert doc["error"] == "WireError"
        assert "MAX_FRAME" in doc["detail"]
        assert _wait(lambda: accepted.closed)
        assert "protocol error" in accepted.close_reason
        raw.close()


class TestVersionMismatch:
    def _foreign_hello(self) -> bytes:
        body = dict(hello_payload())
        body["version"] = WIRE_VERSION + 1
        payload = encode_payload(body)
        return struct.pack(
            "!4sBBHQI",
            b"PDLL",
            WIRE_VERSION + 1,
            FRAME_HELLO,
            0,
            0,
            len(payload),
        ) + payload

    def test_listener_refuses_foreign_version(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        decoder = FrameDecoder()
        accepted_hello = _drain_frames(raw, decoder, 1)
        assert accepted_hello[0].kind == FRAME_HELLO
        raw.sendall(self._foreign_hello())
        accepted = pair.wait_accepted()
        frames = _drain_frames(raw, decoder, 1)
        doc = decode_payload(frames[-1].payload)
        assert doc["error"] == "WireError"
        assert "version mismatch" in doc["detail"]
        assert _wait(lambda: accepted.closed)
        raw.close()

    def test_dialer_handshake_raises_on_foreign_version(self):
        # A fake "controller" that speaks tomorrow's protocol.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()[:2]

        def serve():
            conn, _ = server.accept()
            conn.sendall(self._foreign_hello())
            try:
                conn.recv(65536)  # the dialer's HELLO + its ERROR refusal
            except OSError:
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        transport = SocketTransport()
        with pytest.raises(WireError, match="version mismatch"):
            transport.connect(host, port, timeout=5.0)
        thread.join(5.0)
        server.close()
        transport.close()


class TestStaleReplies:
    def test_deadline_miss_discards_late_reply(self, pair):
        worker = SocketTransport()
        gate = threading.Event()

        def slow_handler(message):
            gate.wait(5.0)
            return "late"

        def fast_handler(message):
            return "fresh"

        worker.bind("slow", slow_handler)
        worker.bind("fast", fast_handler)
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.bind("slow", RemoteEndpoint(accepted, "slow", 0.1))
        pair.transport.bind("fast", RemoteEndpoint(accepted, "fast", None))
        with pytest.raises(RPCError, match="missed its 0.1s deadline"):
            pair.transport.call("slow", Ping())
        gate.set()  # let the late reply sail in
        assert _wait(lambda: accepted.stale_replies == 1)
        # The abandoned id's reply must not bleed into the next call.
        assert pair.transport.call("fast", Ping()) == "fresh"
        assert accepted.stale_replies == 1
        worker.close()

    def test_never_issued_corr_id_discarded(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        raw.sendall(encode_frame(FRAME_REPLY, 999, encode_payload("phantom")))
        assert _wait(lambda: accepted.stale_replies == 1)
        assert not accepted.closed
        raw.close()


class TestReplyWithoutCodec:
    def test_only_that_request_fails(self, pair):
        """A handler's unencodable return value is that request's error,
        not a protocol fault that drops every address on the link."""

        class Mystery:
            pass

        worker = SocketTransport()
        worker.bind("bad", lambda message: Mystery())
        worker.bind("good", lambda message: "fine")
        dialed = worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.bind("bad", RemoteEndpoint(accepted, "bad", None))
        pair.transport.bind("good", RemoteEndpoint(accepted, "good", None))
        with pytest.raises(WireError, match="no wire codec for .*Mystery"):
            pair.transport.call("bad", Ping())
        assert pair.transport.call("good", Ping()) == "fine"
        assert not accepted.closed and not dialed.closed
        worker.close()


#: Well-framed, well-formed JSON whose tagged value cannot be revived, and
#: the exception the reviver meets on the way.
HOSTILE_PAYLOADS = [
    pytest.param(b'{"!t":"OperationType","f":"nope"}', "ValueError", id="enum-value"),
    pytest.param(b'{"!t":"tuple","f":5}', "TypeError", id="tuple-of-int"),
    pytest.param(b'{"!t":"CollectStats","f":[1.0,2.0]}', "expects 1 fields", id="arity"),
    pytest.param(
        b'{"!t":"ClassifierRule","f":["","metadata",null,null,null,null,0]}',
        "ConfigError",
        id="constructor-refuses",
    ),
    pytest.param(b'{"!t":["unhashable"],"f":[]}', "unknown wire tag", id="tag-unhashable"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "RecursionError", id="nesting"),
]


class _Link:
    """A started :class:`WireConnection` with the test as its raw peer."""

    def __init__(self, registry=lambda address: None):
        ours, self.peer = socket.socketpair()
        self.closed_with = []
        self.decoder = FrameDecoder()
        self.connection = WireConnection(
            ours, registry, on_close=self.closed_with.append, name="under-test"
        ).start()
        self.peer.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        assert _drain_frames(self.peer, self.decoder, 1)[0].kind == FRAME_HELLO
        self.connection.handshake()

    def request_in_thread(self, address, deadline=5.0):
        """Issue a request nobody answers yet; returns (thread, outcome)."""
        outcome = {}

        def call():
            start = time.monotonic()
            try:
                outcome["value"] = self.connection.request(address, Ping(), deadline)
            except BaseException as exc:  # noqa: BLE001 - the test inspects it
                outcome["error"] = exc
            outcome["seconds"] = time.monotonic() - start

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        return thread, outcome

    def close(self):
        self.connection.close()
        self.peer.close()


@pytest.fixture()
def link():
    made = _Link()
    yield made
    made.close()


class TestHostilePayloads:
    """A payload that parses but does not revive is a ``WireError`` for the
    one request it belongs to.  It must never kill the reader thread,
    which would leave a connection that looks open and answers nothing."""

    @pytest.mark.parametrize("payload, names", HOSTILE_PAYLOADS)
    def test_decode_payload_raises_only_wire_error(self, payload, names):
        with pytest.raises(WireError, match=names):
            decode_payload(payload)

    @pytest.mark.parametrize("payload, names", HOSTILE_PAYLOADS)
    def test_as_request(self, link, payload, names):
        thread, outcome = link.request_in_thread("elsewhere")
        assert _drain_frames(link.peer, link.decoder, 1)[0].kind == FRAME_REQUEST
        link.peer.sendall(encode_frame(FRAME_REQUEST, 41, payload))
        refusal = _drain_frames(link.peer, link.decoder, 1)[0]
        assert (refusal.kind, refusal.corr_id) == (FRAME_ERROR, 41)
        doc = decode_payload(refusal.payload)
        assert doc["error"] == "WireError" and names in doc["detail"]
        # The link still serves, and the request in flight is untouched.
        link.peer.sendall(
            encode_frame(FRAME_REQUEST, 42, encode_payload({"to": "x", "msg": Ping()}))
        )
        unbound = _drain_frames(link.peer, link.decoder, 1)[0]
        assert (unbound.kind, unbound.corr_id) == (FRAME_ERROR, 42)
        link.peer.sendall(encode_frame(FRAME_REPLY, 1, encode_payload("answered")))
        thread.join(5.0)
        assert outcome.get("value") == "answered"
        assert not link.connection.closed and link.closed_with == []

    @pytest.mark.parametrize("payload, names", HOSTILE_PAYLOADS)
    def test_as_reply(self, link, payload, names):
        thread, outcome = link.request_in_thread("elsewhere")
        request = _drain_frames(link.peer, link.decoder, 1)[0]
        link.peer.sendall(encode_frame(FRAME_REPLY, request.corr_id, payload))
        thread.join(5.0)
        assert isinstance(outcome.get("error"), WireError), outcome
        assert names in str(outcome["error"])
        assert outcome["seconds"] < 2.0  # failed on arrival, not at its deadline
        assert not link.connection.closed and link.closed_with == []
        assert link.connection._reader.is_alive()


class TestReaderFailure:
    def test_an_escaping_exception_shuts_the_connection_down(self):
        """Whatever still gets past the per-frame handling must close the
        link loudly: closed, ``on_close`` fired, reader gone, and the
        requests in flight failed now rather than at their deadline."""

        def registry(address):
            raise RuntimeError(f"registry exploded on {address!r}")

        link = _Link(registry)
        thread, outcome = link.request_in_thread("elsewhere", deadline=30.0)
        assert _drain_frames(link.peer, link.decoder, 1)[0].kind == FRAME_REQUEST
        link.peer.sendall(
            encode_frame(FRAME_REQUEST, 7, encode_payload({"to": "x", "msg": Ping()}))
        )
        thread.join(5.0)
        connection = link.connection
        assert isinstance(outcome.get("error"), RPCError), outcome
        assert "RuntimeError" in str(outcome["error"])
        assert outcome["seconds"] < 5.0
        assert _wait(lambda: connection.closed)
        assert connection.close_reason == (
            "reader failed: RuntimeError: registry exploded on 'x'"
        )
        assert link.closed_with == [connection]
        connection._reader.join(5.0)
        assert not connection._reader.is_alive()
        with pytest.raises(OSError):
            connection._sock.getpeername()  # the socket is closed, not leaked
        link.close()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestFailedDial:
    """A dial that fails is an RPCError naming the address, socket closed."""

    def test_refused_tcp_dial(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens there now
        with pytest.raises(RPCError, match=f"cannot dial 127.0.0.1:{port}"):
            SocketTransport().connect("127.0.0.1", port, timeout=2.0)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_missing_unix_path_closes_its_socket(self, tmp_path):
        path = str(tmp_path / "nobody.sock")
        transport = SocketTransport()
        before = _open_fds()
        for _ in range(3):
            with pytest.raises(RPCError, match="cannot dial .*nobody.sock"):
                transport.connect("", 0, path=path, timeout=2.0)
        assert _open_fds() == before
