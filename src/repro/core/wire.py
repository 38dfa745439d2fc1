"""Versioned wire codec for the control-plane RPC verbs.

The transport refactor splits :mod:`repro.core.rpc` into two layers:
this module owns the *codec* -- how verbs, replies, and telemetry
documents become bytes -- and :mod:`repro.core.transport` /
:mod:`repro.net` own *delivery*.  Keeping the codec pure (no sockets, no
clocks, no threads) lets it live in the deterministic layer and be
golden-tested byte-for-byte (``tests/net/test_wire_golden.py`` holds the
literal corpus; it is the codec's reference, there is no second
implementation to compare against).

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
Payloads are canonical JSON (sorted keys, compact separators, ASCII
only) over a tagged value encoding.  Floats are written with
``float.__repr__`` -- the shortest text that reads back as the same
double -- and the non-finite ones as the ``Infinity`` / ``-Infinity`` /
``NaN`` tokens ``json`` accepts, so every double survives the wire
bit-exactly: the property the cross-transport bit-identity test pins.
Tuples, frozensets, enums, and registered dataclasses are encoded as
``{"!t": tag, "f": ...}`` objects so decode restores the exact Python
shape (a ``StageStats`` decoded from the wire compares equal to the one
that was sent).

Both directions walk a message once.  :func:`register_codec` /
:func:`register_enum` compile, when they are called, an *emitter* per class
that writes the canonical text directly (tag text precomputed, all
fields fetched by one ``attrgetter``) and a *reviver* per tag; encode
dispatches on the exact type of each node, decode hands one
``object_hook`` to the C JSON parser, which revives tagged objects
bottom-up as it closes them.  :func:`decode_payload` raises only
:class:`~repro.errors.WireError`, whatever the payload holds.

Every RPC verb must be registered here via :func:`register_codec` with
an explicit positional field tuple: ``tests/core/test_contracts.py``
checks that every :class:`~repro.core.rpc.RpcMessage` subclass has a
codec and a handler, and :func:`register_codec` refuses a field tuple
that differs from the class's own fields.
"""

from __future__ import annotations

import json
import operator
import struct
from math import isnan
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

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
from repro.core.hierarchy import AggregateStats, CollectAggregate, EnforceJobRateBatch

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
    "encode_payload",
    "encode_request",
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
WIRE_VERSION = 3

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
# One walk each way.  Encode: ``_EMIT`` maps an exact type to a function
# that returns the value's canonical JSON text, children included;
# ``register_codec`` / ``register_enum`` compile one such emitter per class.
# Decode: the C parser calls ``_revive`` on every JSON object as it closes
# it -- children first -- and ``_REVIVE`` maps a tag to the function that
# turns the already-revived body into the Python value.

_escape = json.encoder.encode_basestring_ascii

_REVIVE: Dict[str, Callable[[Any], Any]] = {
    "tuple": tuple,
    "frozenset": frozenset,
    "dict": dict,
}
_BUILTIN_TAGS = frozenset(_REVIVE)

_INF = float("inf")
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _emit_base(value: Any) -> str:
    """The emitter for a type ``_EMIT`` does not list: a subclass that
    travels as its base (an unregistered NamedTuple is a tuple, an
    IntEnum an int), or a class with no codec at all."""
    for base in (int, str, float, tuple, list, frozenset, set, dict):
        if isinstance(value, base):
            return _EMIT[base](value)
    cls = type(value)
    raise WireError(f"no wire codec for {cls.__module__}.{cls.__qualname__}")


def _emit(value: Any) -> str:
    """The canonical JSON text of one value, children included."""
    return _EMIT.get(type(value), _emit_base)(value)


def _join(items: Any) -> str:
    # ``_emit`` spelt out: called through ``map`` it would be one more
    # Python frame for every node of every message.
    return ",".join([_EMIT.get(type(item), _emit_base)(item) for item in items])


def _emit_float(value: float) -> str:
    # repr is the shortest text that round-trips the double exactly.
    if -_INF < value < _INF:
        return float.__repr__(value)
    return _NON_FINITE[float.__repr__(value)]


def _emit_list(value: Any) -> str:
    return "[" + _join(value) + "]"


def _emit_tuple(value: Any) -> str:
    return '{"!t":"tuple","f":[' + _join(value) + "]}"


def _emit_set(value: Any) -> str:
    # Set order is hash order; the sorted element texts are the canon.
    return '{"!t":"frozenset","f":[' + ",".join(sorted(map(_emit, value))) + "]}"


def _emit_dict(value: Any) -> str:
    items = {str(key): _emit(item) for key, item in value.items()}
    if _TAG in items:
        # A plain object carrying "!t" would read back as a tagged
        # value; it travels as a tagged list of [key, value] pairs.
        pairs = [f"[{_escape(key)},{items[key]}]" for key in sorted(items)]
        return '{"!t":"dict","f":[' + ",".join(pairs) + "]}"
    return "{" + ",".join([f"{_escape(key)}:{items[key]}" for key in sorted(items)]) + "}"


_EMIT: Dict[type, Callable[[Any], str]] = {
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    str: _escape,
    float: _emit_float,
    list: _emit_list,
    tuple: _emit_tuple,
    frozenset: _emit_set,
    set: _emit_set,
    dict: _emit_dict,
}


def _claim(cls: type, tag: str) -> None:
    if tag in _REVIVE:
        raise WireError(f"wire tag {tag!r} already registered")
    if cls in _EMIT:
        raise WireError(f"class {cls.__name__} already has a wire codec")


def register_codec(
    cls: type,
    tag: str,
    fields: Tuple[str, ...],
    check: Optional[Callable[[Any], bool]] = None,
) -> None:
    """Register a positional-field codec for ``cls`` under ``tag``.

    ``fields`` is the exact constructor-argument order; encode reads the
    attributes in that order and decode calls ``cls(*decoded)``.  A
    ``check`` vets each decoded value's contents (a reply record the
    control loop computes with): a value it refuses is a
    :class:`~repro.errors.WireError` where the bytes are decoded, so one
    peer's hostile reply fails its own call and nothing else.  The
    field tuple is validated against the class's actual attributes at
    registration time, that is, when this module is imported.  Both
    directions are compiled here, once: the emitter closes over the
    tag's text and one ``attrgetter`` for all the fields, the reviver
    over the class and its arity.
    """
    _claim(cls, tag)
    fields = tuple(fields)
    declared = getattr(cls, "__dataclass_fields__", None)
    if declared is not None:
        init_fields = tuple(
            name for name, f in declared.items() if f.init
        )
        if fields != init_fields:
            raise WireError(
                f"wire codec for {cls.__name__} registers fields {fields}, "
                f"but the dataclass declares {init_fields}"
            )
    named = getattr(cls, "_fields", None)
    if named is not None and fields != tuple(named):
        raise WireError(
            f"wire codec for {cls.__name__} registers fields {fields}, "
            f"but the NamedTuple declares {tuple(named)}"
        )
    head = f'{{"!t":{_escape(tag)},"f":['
    arity = len(fields)
    read = operator.attrgetter(*fields)
    if arity == 1:

        def emit(value: Any) -> str:
            return head + _emit(read(value)) + "]}"

    else:

        def emit(value: Any) -> str:
            return head + _join(read(value)) + "]}"

    def revive(body: Any) -> Any:
        if type(body) is not list or len(body) != arity:
            raise WireError(f"tag {tag!r} expects {arity} fields, got {body!r}")
        value = cls(*body)
        if check is not None and not check(value):
            raise WireError(f"tag {tag!r} refuses the contents {body!r}")
        return value

    _EMIT[cls] = emit
    _REVIVE[tag] = revive


def register_enum(cls: type, tag: str) -> None:
    """Register an :class:`enum.Enum` codec: members travel by value."""
    _claim(cls, tag)
    head = f'{{"!t":{_escape(tag)},"f":'
    _EMIT[cls] = lambda member: head + _emit(member.value) + "}"
    _REVIVE[tag] = cls


def registered_tags() -> Tuple[str, ...]:
    return tuple(sorted(_REVIVE.keys() - _BUILTIN_TAGS))


def encode_payload(value: Any) -> bytes:
    """Canonical JSON bytes for one frame payload.

    Sorted keys, compact separators, ASCII-only text: byte for byte what
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes for
    the tagged document, produced in one walk over the value.
    """
    return _emit(value).encode("ascii")


def encode_request(address: Any, message: Any) -> bytes:
    """``encode_payload({"to": address, "msg": message})``, the request
    envelope, written around the message's text without the dict walk:
    with a ``str`` address the sorted keys are known in advance."""
    if address.__class__ is not str:
        return encode_payload({"to": address, "msg": message})
    return (
        '{"msg":' + _EMIT.get(type(message), _emit_base)(message)
        + ',"to":' + _escape(address) + "}"
    ).encode("ascii")


def _revive(doc: Dict[str, Any]) -> Any:
    tag = doc.get(_TAG)
    if tag is None:
        return doc
    try:
        reviver = _REVIVE[tag]
    except (KeyError, TypeError):
        raise WireError(f"unknown wire tag {tag!r}") from None
    return reviver(doc.get("f"))


_decoder = json.JSONDecoder(object_hook=_revive)
_scan = _decoder.scan_once


def decode_payload(data: bytes) -> Any:
    """The value one frame payload carries; raises only :class:`WireError`.

    A payload is hostile until proven otherwise: text that is not JSON,
    an unknown tag, a body its class refuses (wrong arity, an enum value
    that does not exist, a rule that constrains nothing), nesting deep
    enough to exhaust the stack -- each is a ``WireError`` naming the
    cause, never a bare exception in the reader thread.
    """
    try:
        text = data.decode("utf-8")
        try:
            value, end = _scan(text, 0)
        except StopIteration:
            end = None
        if end == len(text):
            return value
        # Not one canonical document: padded with whitespace (legal
        # JSON) or followed by garbage.  The stock entry point tells the
        # two apart, at the price of a second parse.
        return _decoder.decode(text)
    except WireError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame payload: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - whatever a constructor raises
        raise WireError(
            f"frame payload does not revive: {type(exc).__name__}: {exc}"
        ) from exc


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
        # A chunk that holds whole frames is parsed where it lies; only
        # the tail of a frame still arriving is copied into the buffer.
        buffer = self._buffer
        if buffer:
            buffer += data
            source: Any = buffer
        else:
            source = data
        frames: List[Frame] = []
        size = len(source)
        offset = 0
        while size - offset >= HEADER_SIZE:
            magic, version, kind, _reserved, corr_id, length = _HEADER.unpack_from(
                source, offset
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
            end = offset + HEADER_SIZE + length
            if end > size:
                break
            frames.append(
                Frame(kind, corr_id, bytes(source[offset + HEADER_SIZE:end]), version)
            )
            offset = end
        if source is buffer:
            del buffer[:offset]
        elif offset < size:
            buffer += memoryview(data)[offset:]
        return frames


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
# with its full positional field tuple; tests/core/test_contracts.py
# checks coverage, and register_codec validates each tuple at import.

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


# A reply's numbers must be doubles the control loop can add: ``float`` or
# ``int`` (not ``bool``), not NaN, and an ``int`` within a double's range
# (``isnan`` raises on one that is not); a demand partial, a ``float`` (a
# local's fold is one, and the plane concatenates them as they are).  The
# checks run in C -- ``set(map(type, ...))``, ``map(isnan, ...)`` -- so a
# vetted reply costs its codec one Python frame per record and none per
# field.
_REAL = frozenset({float, int})
_FLOAT = frozenset({float})
_STR = frozenset({str})
_INT = frozenset({int})
_SNAPSHOT = frozenset({ChannelSnapshot})


def _snapshot_ok(snap: ChannelSnapshot) -> bool:
    numbers = snap[1:]
    return (
        type(snap[0]) is str
        and set(map(type, numbers)) <= _REAL
        and not any(map(isnan, numbers))
    )


def _stats_ok(st: StageStats) -> bool:
    return (
        type(st.job_id) is str
        and type(st.window) in _REAL
        and not isnan(st.window)
        and type(st.channels) is tuple
        and set(map(type, st.channels)) <= _SNAPSHOT
    )


def _aggregate_ok(agg: AggregateStats) -> bool:
    job_ids, demand, counts = agg
    return (
        type(job_ids) is tuple
        and type(demand) is tuple
        and type(counts) is tuple
        and len(job_ids) == len(demand) == len(counts)
        and set(map(type, job_ids)) <= _STR
        and set(map(type, demand)) <= _FLOAT
        and not any(map(isnan, demand))
        and set(map(type, counts)) <= _INT
    )


register_codec(
    ChannelSnapshot,
    "ChannelSnapshot",
    ("channel_id", "granted_ops", "enqueued_ops", "backlog", "rate_limit"),
    _snapshot_ok,
)
register_codec(StageStats, "StageStats", ("job_id", "window", "channels"), _stats_ok)
register_codec(
    AggregateStats, "AggregateStats", ("job_ids", "demand", "stage_counts"), _aggregate_ok
)
