"""Socket transport: framed control-plane RPC over TCP / Unix sockets.

One :class:`WireConnection` is a symmetric, full-duplex framed channel:
either side may issue REQUESTs (correlated by id, answered by REPLY or
ERROR), send fire-and-forget PUSH frames, and serve inbound requests
from its local registry.  That symmetry is what makes the stage-host
"reverse tunnel" work: the host *dials* the controller, and the
controller then makes collect/enforce requests back over the same
accepted connection -- no listening port on the application side, just
like the paper's stages living inside application processes.

Threading model (documented in docs/TRANSPORT.md):

* one reader thread per connection demultiplexes inbound frames --
  REQUESTs dispatch inline onto the local registry (requests on one
  connection therefore serialise, matching the controller's sequential
  per-stage calls), REPLY/ERROR frames resolve the pending-request
  table by correlation id, PUSH frames invoke the ``on_push`` callback;
* a caller waits for its reply on a one-shot latch -- a bare lock the
  reader releases -- not on a :class:`threading.Event` (see
  :class:`_Waiter`);
* writers serialise on a per-connection send lock; any thread may send;
* the listener owns one accept thread; closing the listening socket is
  the shutdown signal.

Deadlines: ``request`` waits at most ``deadline`` seconds, then
abandons its correlation id and raises :class:`~repro.errors.RPCError`.
A reply that arrives after abandonment (or for an id this side never
issued) is counted in :attr:`WireConnection.stale_replies` and
discarded -- stale replies must never be mistaken for fresh ones.

Failure containment: a payload that does not decode, a handler that
raises, and a return value with no codec each fail the *one* request
they belong to (an ERROR frame for that correlation id); framing faults
are unrecoverable mid-stream and close the connection; and anything
else that escapes the reader closes it too, with the exception named in
``close_reason`` -- a reader thread never dies leaving a connection that
looks open.

Handshake: both ends send a HELLO frame first and refuse the peer on a
``WIRE_VERSION`` mismatch (an ERROR frame is returned so the peer can
log why, then the connection closes).  The peer's HELLO names it: an
accepted connection keeps its dialer's name as :attr:`WireConnection.peer`.
"""

from __future__ import annotations

import socket
import threading
from threading import get_ident
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RPCError, StageNotRegistered, WireError
from repro.core.transport import InProcTransport
from repro.core.wire import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_PUSH,
    FRAME_REPLY,
    FRAME_REQUEST,
    FrameDecoder,
    check_hello,
    decode_payload,
    encode_frame,
    encode_payload,
    encode_request,
    error_payload,
    hello_payload,
    raise_error,
)

__all__ = ["RemoteEndpoint", "SocketListener", "SocketTransport", "WireConnection"]

_RECV_CHUNK = 64 * 1024

#: Default request deadline, seconds.  Generous for a localhost control
#: plane; the service layer passes its own, derived from the loop
#: interval.
DEFAULT_DEADLINE = 5.0


class _Waiter:
    """One in-flight request: a one-shot latch plus its eventual outcome.

    The latch is a bare lock, taken here and released exactly once by
    whoever removes the waiter from the pending table (the reader with
    the reply, or ``_shutdown``); the caller's ``wait`` is a timed
    acquire.  One waiter and one releaser is all a reply hand-off needs,
    and a :class:`threading.Event` pays for more: a second lock inside a
    ``Condition`` per wait and a ``notify_all`` per set.
    """

    __slots__ = ("_latch", "value", "error")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def resolve(self) -> None:
        self._latch.release()

    def wait(self, timeout: float) -> bool:
        """True once resolved; False if ``timeout`` (>= 0) seconds pass first."""
        return self._latch.acquire(True, timeout)


class WireConnection:
    """A framed, full-duplex RPC channel over one connected socket."""

    def __init__(
        self,
        sock: socket.socket,
        registry: Callable[[str], Optional[Callable[[Any], Any]]],
        *,
        on_push: Optional[Callable[["WireConnection", Any], None]] = None,
        on_close: Optional[Callable[["WireConnection"], None]] = None,
        name: str = "peer",
        deadline: float = DEFAULT_DEADLINE,
    ) -> None:
        self._sock = sock
        self._registry = registry
        self._on_push = on_push
        self._on_close = on_close
        self.name = name
        #: The name the peer's HELLO carried; None until it arrives.
        self.peer: Optional[str] = None
        self.deadline = deadline
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, _Waiter] = {}
        self._next_corr = 1
        self._decoder = FrameDecoder()
        self._hello_seen = threading.Event()
        self._hello_error: Optional[BaseException] = None
        self._closed = threading.Event()
        self._close_reason: Optional[str] = None
        #: Replies/errors that arrived for an unknown (abandoned or never
        #: issued) correlation id; discarded by design.
        self.stale_replies = 0
        self._reader = threading.Thread(
            target=self._read_loop, name=f"padll-net-reader-{name}", daemon=True
        )
        self._reader_ident: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WireConnection":
        """Send this side's HELLO and start demultiplexing."""
        self._send_frame(FRAME_HELLO, 0, encode_payload(hello_payload(self.name)))
        self._reader.start()
        return self

    def handshake(self, timeout: float = DEFAULT_DEADLINE) -> None:
        """Block until the peer's HELLO is validated; raise on refusal."""
        if not self._hello_seen.wait(timeout):
            if self._closed.is_set():
                raise RPCError(
                    f"connection {self.name!r} closed during handshake"
                    + (f": {self._close_reason}" if self._close_reason else "")
                )
            raise RPCError(f"handshake with {self.name!r} timed out after {timeout}s")
        if self._hello_error is not None:
            raise self._hello_error

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def close_reason(self) -> Optional[str]:
        return self._close_reason

    def close(self, reason: str = "closed locally", join: bool = True) -> None:
        self._shutdown(reason, notify=True)
        if join and self._reader.is_alive() and threading.current_thread() is not self._reader:
            self._reader.join(2.0)

    def _shutdown(self, reason: str, notify: bool) -> None:
        if self._closed.is_set():
            return
        self._close_reason = reason
        self._closed.set()
        self._hello_seen.set()  # unblock any handshake waiter
        if self._hello_error is None and reason != "closed locally":
            self._hello_error = RPCError(f"connection {self.name!r}: {reason}")
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._pending_lock:
            waiters = list(self._pending.values())
            self._pending.clear()
        for waiter in waiters:
            waiter.error = RPCError(f"connection {self.name!r} closed: {reason}")
            waiter.resolve()
        if notify and self._on_close is not None:
            callback, self._on_close = self._on_close, None
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - observer must not kill teardown
                pass

    # -- sending -----------------------------------------------------------
    def _send_frame(self, kind: int, corr_id: int, payload: bytes) -> None:
        frame = encode_frame(kind, corr_id, payload)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            self._shutdown(f"send failed: {exc}", notify=True)
            raise RPCError(f"connection {self.name!r} send failed: {exc}") from exc

    def push(self, value: Any) -> None:
        """Fire-and-forget document to the peer (telemetry, registration)."""
        self._send_frame(FRAME_PUSH, 0, encode_payload(value))

    def request(
        self, address: str, message: Any, deadline: Optional[float] = None
    ) -> Any:
        """Call ``address`` on the peer and wait for the correlated reply.

        Refused at once from this connection's reader thread (a handler
        it is running): only that thread could read the reply."""
        if self._closed.is_set():
            raise RPCError(f"connection {self.name!r} is closed")
        if get_ident() == self._reader_ident:
            raise RPCError(f"request to {address!r} from {self.name!r}'s own reader")
        deadline = self.deadline if deadline is None else deadline
        waiter = _Waiter()
        with self._pending_lock:
            corr_id = self._next_corr
            self._next_corr += 1
            self._pending[corr_id] = waiter
        try:
            self._send_frame(FRAME_REQUEST, corr_id, encode_request(address, message))
        except RPCError:
            with self._pending_lock:
                self._pending.pop(corr_id, None)
            raise
        if not waiter.wait(deadline):
            # Abandon the id: a reply landing later is stale by definition.
            with self._pending_lock:
                abandoned = self._pending.pop(corr_id, None) is not None
            if abandoned:
                raise RPCError(
                    f"request to {address!r} missed its {deadline}s deadline"
                )
            # Lost the race: the reader resolved it between wait and pop.
            waiter.wait(1.0)
        if waiter.error is not None:
            raise waiter.error
        return waiter.value

    # -- receiving ---------------------------------------------------------
    def _read_loop(self) -> None:
        self._reader_ident = get_ident()
        try:
            while not self._closed.is_set():
                try:
                    data = self._sock.recv(_RECV_CHUNK)
                except OSError:
                    break
                if not data:
                    break
                for frame in self._decoder.feed(data):
                    self._handle_frame(frame)
        except WireError as exc:
            # Framing is unrecoverable mid-stream; tell the peer why if
            # the socket still works, then tear down.
            try:
                self._send_frame(FRAME_ERROR, 0, encode_payload(error_payload(exc)))
            except RPCError:
                pass
            self._shutdown(f"protocol error: {exc}", notify=True)
            return
        except Exception as exc:  # noqa: BLE001 - never die leaving the link open
            self._shutdown(
                f"reader failed: {type(exc).__name__}: {exc}", notify=True
            )
            return
        if self._decoder.pending:
            self._shutdown(
                f"peer disconnected mid-frame ({self._decoder.pending} bytes buffered)",
                notify=True,
            )
        else:
            self._shutdown("peer disconnected", notify=True)

    def _handle_frame(self, frame) -> None:
        if not self._hello_seen.is_set():
            try:
                self.peer = str(check_hello(frame).get("peer", ""))
            except WireError as exc:
                try:
                    self._send_frame(
                        FRAME_ERROR, 0, encode_payload(error_payload(exc))
                    )
                except RPCError:
                    pass
                self._hello_error = exc
                self._hello_seen.set()
                self._shutdown(str(exc), notify=True)
                raise
            self._hello_seen.set()
            return
        if frame.kind == FRAME_REQUEST:
            self._serve_request(frame)
        elif frame.kind in (FRAME_REPLY, FRAME_ERROR):
            self._resolve(frame)
        elif frame.kind == FRAME_PUSH:
            if self._on_push is not None:
                try:
                    self._on_push(self, decode_payload(frame.payload))
                except Exception:  # noqa: BLE001 - push observer is best-effort
                    pass
        elif frame.kind == FRAME_HELLO:
            pass  # duplicate HELLO: harmless

    def _serve_request(self, frame) -> None:
        try:
            doc = decode_payload(frame.payload)
            address = doc["to"]
            message = doc["msg"]
        except (WireError, KeyError, TypeError) as exc:
            self._send_frame(
                FRAME_ERROR, frame.corr_id, encode_payload(error_payload(exc))
            )
            return
        handler = self._registry(address)
        if handler is None:
            exc = StageNotRegistered(f"address {address!r} not bound")
            self._send_frame(
                FRAME_ERROR, frame.corr_id, encode_payload(error_payload(exc))
            )
            return
        try:
            # A return value without a codec fails this one request, like
            # any other handler error; the link and its other addresses
            # stay up.
            reply = encode_payload(handler(message))
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self._send_frame(
                FRAME_ERROR, frame.corr_id, encode_payload(error_payload(exc))
            )
            return
        self._send_frame(FRAME_REPLY, frame.corr_id, reply)

    def _resolve(self, frame) -> None:
        if frame.corr_id == 0:
            # Connection-level error (handshake refusal, protocol fault).
            doc = decode_payload(frame.payload)
            detail = doc.get("detail", "") if isinstance(doc, dict) else str(doc)
            error = WireError(str(detail))
            if not self._hello_seen.is_set():
                self._hello_error = error
                self._hello_seen.set()
            self._shutdown(f"peer refused: {detail}", notify=True)
            return
        with self._pending_lock:
            waiter = self._pending.pop(frame.corr_id, None)
        if waiter is None:
            self.stale_replies += 1
            return
        try:
            if frame.kind == FRAME_ERROR:
                try:
                    raise_error(decode_payload(frame.payload))
                except BaseException as exc:  # noqa: BLE001 - handed to waiter
                    waiter.error = exc
            else:
                waiter.value = decode_payload(frame.payload)
        except WireError as exc:
            waiter.error = exc
        waiter.resolve()


class RemoteEndpoint:
    """The handler bound for a remote address: a request over its link."""

    __slots__ = ("connection", "address", "deadline")

    def __init__(
        self, connection: WireConnection, address: str, deadline: Optional[float]
    ) -> None:
        self.connection = connection
        self.address = address
        self.deadline = deadline

    def __call__(self, message: Any) -> Any:
        return self.connection.request(self.address, message, self.deadline)


class SocketListener:
    """Accept loop turning inbound sockets into :class:`WireConnection`."""

    def __init__(
        self,
        registry: Callable[[str], Optional[Callable[[Any], Any]]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        path: Optional[str] = None,
        on_connect: Optional[Callable[[WireConnection], None]] = None,
        on_push: Optional[Callable[[WireConnection, Any], None]] = None,
        on_close: Optional[Callable[[WireConnection], None]] = None,
        deadline: float = DEFAULT_DEADLINE,
    ) -> None:
        self._registry = registry
        self._on_connect = on_connect
        self._on_push = on_push
        self._on_close = on_close
        self._deadline = deadline
        self._lock = threading.Lock()
        self._connections: List[WireConnection] = []
        self._closing = threading.Event()
        if path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(path)
            self.address: Tuple[str, int] = (path, 0)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self.address = self._sock.getsockname()[:2]
        self._sock.listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="padll-net-accept", daemon=True
        )
        self._accept_thread.start()

    def connections(self) -> List[WireConnection]:
        with self._lock:
            return list(self._connections)

    def _accept_loop(self) -> None:
        index = 0
        while not self._closing.is_set():
            try:
                sock, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed: shutdown signal
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            index += 1
            connection = WireConnection(
                sock,
                self._registry,
                on_push=self._on_push,
                on_close=self._forget,
                name=f"accepted-{index}",
                deadline=self._deadline,
            )
            with self._lock:
                self._connections.append(connection)
            connection.start()
            if self._on_connect is not None:
                try:
                    self._on_connect(connection)
                except Exception:  # noqa: BLE001 - observer is best-effort
                    pass

    def _forget(self, connection: WireConnection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
        if self._on_close is not None:
            self._on_close(connection)

    def close(self) -> None:
        self._closing.set()
        # shutdown() before close(): on Linux, close() alone does not wake
        # a thread blocked in accept() on the same socket.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._accept_thread.join(2.0)
        for connection in self.connections():
            connection.close(reason="listener shutting down")


class SocketTransport(InProcTransport):
    """A transport mixing local handlers with remote endpoints.

    Local binds behave exactly like :class:`InProcTransport`.  A
    *remote* address is bound to a :class:`RemoteEndpoint`: calls become
    deadline-aware framed requests over its :class:`WireConnection`.  The
    decorating :class:`~repro.core.fabric.FaultyFabric` cannot tell the
    two apart -- which is the point.
    """

    def __init__(self, deadline: float = DEFAULT_DEADLINE) -> None:
        super().__init__()
        self.deadline = deadline
        self._listener: Optional[SocketListener] = None
        self._dialed: List[WireConnection] = []

    # -- server side -------------------------------------------------------
    def listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        path: Optional[str] = None,
        on_connect: Optional[Callable[[WireConnection], None]] = None,
        on_push: Optional[Callable[[WireConnection, Any], None]] = None,
        on_close: Optional[Callable[[WireConnection], None]] = None,
    ) -> Tuple[str, int]:
        """Start accepting peer connections; returns the bound address."""
        if self._listener is not None:
            raise RPCError("socket transport already listening")
        self._listener = SocketListener(
            self.handler,
            host,
            port,
            path=path,
            on_connect=on_connect,
            on_push=on_push,
            on_close=on_close,
            deadline=self.deadline,
        )
        return self._listener.address

    # -- client side -------------------------------------------------------
    def connect(
        self,
        host: str,
        port: int,
        *,
        path: Optional[str] = None,
        name: str = "dialed",
        on_push: Optional[Callable[[WireConnection, Any], None]] = None,
        on_close: Optional[Callable[[WireConnection], None]] = None,
        timeout: float = DEFAULT_DEADLINE,
    ) -> WireConnection:
        """Dial a peer, complete the HELLO handshake, return the channel.

        The new connection serves inbound requests from *this*
        transport's registry -- the reverse tunnel a stage host uses to
        expose its stages to the controller it dialed.  A failed dial is
        an :class:`RPCError` naming the address, its socket closed.
        """
        sock = None
        try:
            if path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(path)
            else:
                sock = socket.create_connection((host, port), timeout=timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise RPCError(f"cannot dial {path or f'{host}:{port}'}: {exc}") from exc
        sock.settimeout(None)
        connection = WireConnection(
            sock,
            self.handler,
            on_push=on_push,
            on_close=on_close,
            name=name,
            deadline=self.deadline,
        )
        connection.start()
        try:
            connection.handshake(timeout)
        except BaseException:
            connection.close(reason="handshake failed")
            raise
        self._dialed.append(connection)
        return connection

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for connection in list(self._dialed):
            connection.close(reason="transport closing")
        self._dialed.clear()
