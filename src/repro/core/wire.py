"""Versioned wire codec for the control-plane RPC verbs.

The transport refactor splits :mod:`repro.core.rpc` into two layers:
this module owns the *codec* -- how verbs, replies, and telemetry
documents become bytes -- and :mod:`repro.core.transport` /
:mod:`repro.net` own *delivery*.  Keeping the codec pure (no sockets, no
clocks, no threads) lets it live in the deterministic layer and be
golden-tested byte-for-byte.

Framing
-------
Every frame is a fixed 20-byte header followed by a JSON payload::

    !4s B    B    H        Q       I
    PDLL ver  kind reserved corr_id payload_length

``kind`` is one of HELLO / REQUEST / REPLY / ERROR / PUSH.  ``corr_id``
correlates a REPLY or ERROR with the REQUEST that caused it; HELLO and
PUSH frames use 0.  Frames above :data:`MAX_FRAME` payload bytes are
refused by :class:`FrameDecoder` before any allocation.

Payloads
--------
Payloads are canonical JSON (sorted keys, compact separators) over a
tagged value encoding.  Python's ``json`` emits floats with
``repr``-shortest round-trip text, so every double survives the wire
bit-exactly -- the property the cross-transport bit-identity test pins.
Tuples, frozensets, enums, and registered dataclasses are encoded as
``{"!t": tag, "f": ...}`` objects so decode restores the exact Python
shape (a ``StageStats`` decoded from the wire compares equal to the one
that was sent).

Every RPC verb must be registered here via :func:`register_codec` with
an explicit positional field tuple; the lint rules WIRE001/WIRE002
statically check that every :class:`~repro.core.rpc.RpcMessage`
subclass has a registration and that the registered arity matches the
class's declared fields.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import repro.errors as _errors
from repro.errors import RPCError, WireError
from repro.core.differentiation import ClassifierRule
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
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    JobAggregate,
)

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "MAX_FRAME",
    "HEADER_SIZE",
    "FRAME_HELLO",
    "FRAME_REQUEST",
    "FRAME_REPLY",
    "FRAME_ERROR",
    "FRAME_PUSH",
    "Frame",
    "FrameDecoder",
    "encode_frame",
    "encode_value",
    "decode_value",
    "encode_payload",
    "decode_payload",
    "hello_payload",
    "check_hello",
    "error_payload",
    "raise_error",
    "register_codec",
    "register_enum",
    "registered_tags",
]

#: Protocol version carried in every frame header and the HELLO payload.
#: Bump on any incompatible codec or framing change; peers refuse a
#: mismatched HELLO before exchanging any verb.
WIRE_VERSION = 1

MAGIC = b"PDLL"

#: Refuse payloads above this size before buffering them (a corrupted or
#: hostile length field must not drive an allocation).
MAX_FRAME = 4 * 1024 * 1024

_HEADER = struct.Struct("!4sBBHQI")
HEADER_SIZE = _HEADER.size

FRAME_HELLO = 1
FRAME_REQUEST = 2
FRAME_REPLY = 3
FRAME_ERROR = 4
FRAME_PUSH = 5

_FRAME_KINDS = frozenset(
    {FRAME_HELLO, FRAME_REQUEST, FRAME_REPLY, FRAME_ERROR, FRAME_PUSH}
)

_TAG = "!t"


class Frame(NamedTuple):
    """One decoded frame: header fields plus the raw payload bytes."""

    kind: int
    corr_id: int
    payload: bytes
    version: int = WIRE_VERSION


# -- tagged value codec ------------------------------------------------------

class _Codec(NamedTuple):
    cls: type
    tag: str
    fields: Tuple[str, ...]


_BY_CLASS: Dict[type, _Codec] = {}
_BY_TAG: Dict[str, Callable[[Any], Any]] = {}


def register_codec(cls: type, tag: str, fields: Tuple[str, ...]) -> None:
    """Register a positional-field codec for ``cls`` under ``tag``.

    ``fields`` is the exact constructor-argument order; encode reads the
    attributes in that order and decode calls ``cls(*decoded)``.  The
    field tuple is validated against the class's actual attributes at
    registration time, and statically (arity vs. declared fields) by the
    WIRE002 lint rule.
    """
    if tag in _BY_TAG:
        raise WireError(f"wire tag {tag!r} already registered")
    if cls in _BY_CLASS:
        raise WireError(f"class {cls.__name__} already has a wire codec")
    declared = getattr(cls, "__dataclass_fields__", None)
    if declared is not None:
        init_fields = tuple(
            name for name, f in declared.items() if f.init
        )
        if tuple(fields) != init_fields:
            raise WireError(
                f"wire codec for {cls.__name__} registers fields {fields}, "
                f"but the dataclass declares {init_fields}"
            )
    named = getattr(cls, "_fields", None)
    if named is not None and tuple(fields) != tuple(named):
        raise WireError(
            f"wire codec for {cls.__name__} registers fields {fields}, "
            f"but the NamedTuple declares {tuple(named)}"
        )
    codec = _Codec(cls=cls, tag=tag, fields=tuple(fields))
    _BY_CLASS[cls] = codec

    def _decode(doc: Any) -> Any:
        if not isinstance(doc, list) or len(doc) != len(codec.fields):
            raise WireError(
                f"tag {tag!r} expects {len(codec.fields)} fields, got {doc!r}"
            )
        return codec.cls(*(decode_value(item) for item in doc))

    _BY_TAG[tag] = _decode


def register_enum(cls: type, tag: str) -> None:
    """Register an :class:`enum.Enum` codec: members travel by value."""
    if tag in _BY_TAG:
        raise WireError(f"wire tag {tag!r} already registered")
    if cls in _BY_CLASS:
        raise WireError(f"class {cls.__name__} already has a wire codec")
    _BY_CLASS[cls] = _Codec(cls=cls, tag=tag, fields=())
    _BY_TAG[tag] = lambda doc: cls(doc)


def registered_tags() -> Tuple[str, ...]:
    return tuple(sorted(_BY_TAG))


def encode_value(value: Any) -> Any:
    """Lower a Python value into the JSON-safe tagged form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json round-trips floats exactly (repr-shortest); Infinity/NaN
        # are emitted as bare tokens, which json.loads accepts back.
        return value
    cls = type(value)
    codec = _BY_CLASS.get(cls)
    if codec is not None:
        if codec.fields:
            return {
                _TAG: codec.tag,
                "f": [encode_value(getattr(value, name)) for name in codec.fields],
            }
        return {_TAG: codec.tag, "f": value.value}
    if isinstance(value, tuple):
        return {_TAG: "tuple", "f": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, (frozenset, set)):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda doc: json.dumps(doc, sort_keys=True))
        return {_TAG: "frozenset", "f": encoded}
    if isinstance(value, dict):
        items = {str(k): encode_value(v) for k, v in value.items()}
        if _TAG in items:
            return {_TAG: "dict", "f": sorted(items.items())}
        return items
    raise WireError(f"no wire codec for {cls.__module__}.{cls.__qualname__}")


def decode_value(doc: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(doc, list):
        return [decode_value(item) for item in doc]
    if not isinstance(doc, dict):
        return doc
    tag = doc.get(_TAG)
    if tag is None:
        return {key: decode_value(item) for key, item in doc.items()}
    body = doc.get("f")
    if tag == "tuple":
        return tuple(decode_value(item) for item in body)
    if tag == "frozenset":
        return frozenset(decode_value(item) for item in body)
    if tag == "dict":
        return {key: decode_value(item) for key, item in body}
    decoder = _BY_TAG.get(tag)
    if decoder is None:
        raise WireError(f"unknown wire tag {tag!r}")
    return decoder(body)


def encode_payload(value: Any) -> bytes:
    """Canonical JSON bytes for one frame payload."""
    return json.dumps(
        encode_value(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_payload(data: bytes) -> Any:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame payload: {exc}") from exc
    return decode_value(doc)


# -- error transport ---------------------------------------------------------

def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The ERROR-frame body for one handler exception."""
    return {"error": type(exc).__name__, "detail": str(exc)}


def raise_error(doc: Any) -> None:
    """Re-raise an ERROR-frame body as the nearest local exception class.

    Only :class:`~repro.errors.ReproError` subclasses travel by name;
    anything else (or an unknown name) degrades to :class:`RPCError` so
    a remote stage can never make the controller raise arbitrary types.
    """
    name = doc.get("error", "RPCError") if isinstance(doc, dict) else "RPCError"
    detail = doc.get("detail", "") if isinstance(doc, dict) else str(doc)
    cls = getattr(_errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, _errors.ReproError)):
        cls = RPCError
    raise cls(str(detail))


# -- framing -----------------------------------------------------------------

def encode_frame(kind: int, corr_id: int, payload: bytes) -> bytes:
    """One header + payload, ready for the socket."""
    if kind not in _FRAME_KINDS:
        raise WireError(f"unknown frame kind {kind}")
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload {len(payload)} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )
    header = _HEADER.pack(
        MAGIC, WIRE_VERSION, kind, 0, corr_id & ((1 << 64) - 1), len(payload)
    )
    return header + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed`` accepts any chunking (including single bytes) and yields
    complete frames; partial frames wait in the buffer.  Malformed input
    -- wrong magic, unknown kind, oversized length -- raises
    :class:`~repro.errors.WireError` immediately: framing errors are not
    recoverable mid-stream, the connection must be torn down.

    A header with a foreign protocol version is accepted only for HELLO
    frames (the peer must be able to *parse* a newer hello in order to
    refuse it); any other kind with a version mismatch is fatal.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet framed (mid-frame indicator)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Frame]:
        if len(self._buffer) < HEADER_SIZE:
            return None
        magic, version, kind, _reserved, corr_id, length = _HEADER.unpack_from(
            self._buffer
        )
        if magic != MAGIC:
            raise WireError(f"bad frame magic {bytes(magic)!r}")
        if kind not in _FRAME_KINDS:
            raise WireError(f"unknown frame kind {kind}")
        if length > MAX_FRAME:
            raise WireError(
                f"frame payload {length} bytes exceeds MAX_FRAME {MAX_FRAME}"
            )
        if version != WIRE_VERSION and kind != FRAME_HELLO:
            raise WireError(
                f"frame version {version} != WIRE_VERSION {WIRE_VERSION}"
            )
        if len(self._buffer) < HEADER_SIZE + length:
            return None
        payload = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
        del self._buffer[:HEADER_SIZE + length]
        return Frame(kind=kind, corr_id=corr_id, payload=payload, version=version)


# -- handshake ---------------------------------------------------------------

def hello_payload(peer: str = "") -> Dict[str, Any]:
    """The HELLO body each side sends before any other frame."""
    return {"version": WIRE_VERSION, "peer": peer}


def check_hello(frame: Frame) -> Dict[str, Any]:
    """Validate a peer's HELLO; raises :class:`WireError` on mismatch."""
    if frame.kind != FRAME_HELLO:
        raise WireError(
            f"expected HELLO as the first frame, got kind {frame.kind}"
        )
    doc = decode_payload(frame.payload)
    version = doc.get("version") if isinstance(doc, dict) else None
    if frame.version != WIRE_VERSION or version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version!r} "
            f"(header {frame.version}), this side speaks {WIRE_VERSION}"
        )
    return doc


# -- verb registrations ------------------------------------------------------
# Every RpcMessage subclass must appear here (or in its defining module)
# with its full positional field tuple; WIRE001/WIRE002 enforce coverage
# and arity statically, and register_codec re-validates at import time.

register_enum(OperationType, "OperationType")
register_enum(OperationClass, "OperationClass")

register_codec(Ping, "Ping", ("payload",))
register_codec(CollectStats, "CollectStats", ("now",))
register_codec(EnforceRate, "EnforceRate", ("channel_id", "rate", "now", "burst"))
register_codec(CreateChannel, "CreateChannel", ("channel_id", "rate", "now", "burst"))
register_codec(InstallRule, "InstallRule", ("rule",))
register_codec(RemoveRule, "RemoveRule", ("name",))
register_codec(RemoveChannel, "RemoveChannel", ("channel_id",))

register_codec(CollectAggregate, "CollectAggregate", ("now", "channel", "loop_interval"))
register_codec(EnforceJobRateBatch, "EnforceJobRateBatch", ("channel_id", "now", "entries"))

register_codec(
    ClassifierRule,
    "ClassifierRule",
    ("name", "channel_id", "op_types", "op_classes", "path_prefixes", "job_ids", "priority"),
)
register_codec(
    StageIdentity, "StageIdentity", ("stage_id", "job_id", "hostname", "pid", "user")
)
register_codec(
    ChannelSnapshot,
    "ChannelSnapshot",
    ("channel_id", "granted_ops", "enqueued_ops", "backlog", "rate_limit", "mean_wait", "max_wait"),
)
register_codec(
    StageStats,
    "StageStats",
    ("stage_id", "job_id", "timestamp", "window", "channels", "passthrough_ops"),
)
register_codec(JobAggregate, "JobAggregate", ("job_id", "demand", "n_stages"))
register_codec(AggregateStats, "AggregateStats", ("local_id", "timestamp", "jobs"))
