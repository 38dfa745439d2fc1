"""A composable, deterministic faulty-RPC fabric.

The paper's section VI defers control-plane dependability -- lost RPCs,
controller lag, partitions -- to future work.  This module supplies the
communication substrate those studies need: one fabric that can be
synchronous in-process, latency-deferred or enforcement-lagged *and*
inject faults deterministically:

* per-link latency with seeded uniform jitter,
* per-message loss probability (seeded),
* scripted partition windows (a set of addresses unreachable between
  ``start`` and ``end`` simulated seconds, then healed).

Determinism contract: every random draw comes from one
:func:`repro.simulation.rng.make_rng` generator of the construction seed,
built on the first draw;
draw order is send order plus engine callback order, both of which are
deterministic for a fixed seed.  The fabric never reads wall clocks --
``env.now`` is the only notion of time, and without an engine attached
the fabric is purely synchronous and draws only loss decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.transport import InProcTransport

__all__ = ["LinkProfile", "FaultyFabric"]


@dataclass(frozen=True, slots=True)
class LinkProfile:
    """Communication characteristics of one control-plane link.

    ``latency`` is the fixed one-way delay in simulated seconds; ``jitter``
    adds a uniform ``[0, jitter)`` component per message; ``loss`` is the
    per-message-leg drop probability.
    """

    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency}")
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError(f"loss must be in [0, 1], got {self.loss}")

    @property
    def faultless(self) -> bool:
        return self.latency == 0 and self.jitter == 0 and self.loss == 0


class FaultyFabric:
    """Address -> handler registry with deterministic fault injection.

    Without an engine (``env=None``) every call dispatches synchronously
    and an undeliverable message raises :class:`RPCError` -- the shape the
    flat control loop's collect path expects.  With an engine attached,
    ``call`` becomes fire-and-forget deferred delivery (undeliverable
    messages vanish silently, as on a real network) and ``call_async``
    returns an :class:`~repro.simulation.engine.Event` that fires with the
    handler's reply -- or never fires if either leg is lost, leaving the
    caller's deadline to notice.

    ``sync_messages`` lists message types that dispatch synchronously even
    with an engine attached (the control-lag ablation keeps collects
    synchronous this way); :meth:`defers` says which kind a message is,
    and the control plane collects through per-endpoint sessions exactly
    when its collect message defers.  Deferred messages have their
    ``now`` field rewritten to arrival time (a token bucket cannot refill
    into the past), and ``call_async`` replies traverse the link a second
    time.

    The fabric is a *decorator* over a transport: the registry and the
    actual delivery live in the inner transport
    (:class:`~repro.core.transport.InProcTransport` by default, its
    socket subclass in the out-of-process service mode),
    while every fault draw, counter, and partition check happens here --
    so loss/latency/partition injection behaves identically over
    in-process and socket links.
    """

    def __init__(
        self,
        env=None,
        link: Optional[LinkProfile] = None,
        drop_fn: Optional[Callable[[str, Any], bool]] = None,
        seed: int = 0,
        telemetry=None,
        sync_messages: Tuple[type, ...] = (),
        clock: Optional[Callable[[], float]] = None,
        transport: Optional[InProcTransport] = None,
    ) -> None:
        self.env = env
        #: Delivery substrate this fabric decorates with faults.
        self.transport = transport if transport is not None else InProcTransport()
        #: The transport's registry lookup, bound once: every dispatch
        #: resolves its handler with one C-level ``dict.get``.
        self._handler_of = self.transport._handlers.get
        #: Engine-less notion of time.  The live interposition layer has
        #: no simulation engine; it passes its own (wall) clock so
        #: scripted partition windows and telemetry drop events still
        #: have a timeline.  The fabric itself never reads a clock --
        #: ``env.now`` wins when an engine is attached, and with neither
        #: an engine nor a clock every timestamp is 0.0 (legacy).
        self._clock = clock
        self.link = link if link is not None else LinkProfile()
        #: Per-address overrides of ``link`` (:meth:`set_link`).
        self._links: Dict[str, LinkProfile] = {}
        self._drop_fn = drop_fn
        self._seed = seed
        #: Built on the first draw (:meth:`_draw`).
        self._rng = None
        self._telemetry = telemetry
        self._sync_messages = sync_messages
        #: Scripted partition windows: (start, end, addresses-or-None).
        self._partitions: List[Tuple[float, float, Optional[frozenset]]] = []
        self.calls = 0
        #: Total undeliverable messages (drop_fn + loss + partition).
        self.dropped = 0
        #: Breakdown of ``dropped``.
        self.lost = 0
        self.partitioned = 0
        #: Messages delivered through the engine rather than synchronously.
        self.deferred = 0

    # -- registry (delegated to the inner transport) -----------------------
    def bind(self, address: str, handler: Callable[[Any], Any]) -> None:
        self.transport.bind(address, handler)

    def unbind(self, address: str) -> None:
        self.transport.unbind(address)

    def bound(self, address: str) -> bool:
        return self.transport.bound(address)

    # -- fault scripting ---------------------------------------------------
    def set_link(self, address: str, link: LinkProfile) -> None:
        """Override the link profile for one address."""
        self._links[address] = link

    def link_for(self, address: str) -> LinkProfile:
        return self._links.get(address, self.link)

    def _now(self) -> float:
        if self.env is not None:
            return self.env.now
        if self._clock is not None:
            return self._clock()
        return 0.0

    def partition(
        self, start: float, end: float, addresses=None
    ) -> None:
        """Script a partition: ``addresses`` (or everyone when None) are
        unreachable for ``start <= now < end`` seconds -- simulated with
        an engine attached, the caller-provided clock's timeline without
        one (the live layer scripts partitions in wall time)."""
        if end <= start:
            raise ConfigError(f"partition end {end} must be after start {start}")
        if self.env is None and self._clock is None:
            raise ConfigError("partitions need an engine- or clock-attached fabric")
        addrs = None if addresses is None else frozenset(addresses)
        self._partitions.append((start, end, addrs))
        if self._telemetry is not None:
            self._telemetry.events.emit(
                "rpc.partition",
                start,
                end=end,
                addresses=sorted(addrs) if addrs is not None else None,
            )

    def _partitioned_now(self, address: str) -> bool:
        if not self._partitions:
            return False
        now = self._now()
        for start, end, addrs in self._partitions:
            if start <= now < end and (addrs is None or address in addrs):
                return True
        return False

    # -- delivery helpers --------------------------------------------------
    def _drop(self, address: str, message: Any, reason: str, leg: str) -> None:
        """Count one dropped leg and record it as an ``rpc.drop`` event."""
        self.dropped += 1
        if reason == "loss":
            self.lost += 1
        elif reason == "partition":
            self.partitioned += 1
        if self._telemetry is not None:
            now = self._now()
            # Field is named ``message`` (not ``kind``): EventLog.emit's
            # first positional parameter already claims that keyword.
            self._telemetry.events.emit(
                "rpc.drop",
                now,
                address=address,
                message=type(message).__name__,
                reason=reason,
                leg=leg,
            )

    def _undeliverable(self, address: str, message: Any) -> Optional[str]:
        """Return a drop reason for this send leg, or None if it goes out."""
        if self._drop_fn is not None and self._drop_fn(address, message):
            return "drop_fn"
        if self._partitioned_now(address):
            return "partition"
        link = self.link_for(address)
        if link.loss > 0.0 and self._draw() < link.loss:
            return "loss"
        return None

    def _draw(self) -> float:
        """One uniform draw from the fabric's generator, seeded at
        construction and built on the first draw, so a fabric that never
        draws (no loss, no jitter) never loads ``numpy.random``."""
        rng = self._rng
        if rng is None:
            from repro.simulation.rng import make_rng

            rng = self._rng = make_rng(self._seed)
        return rng.random()

    def _delay(self, link: LinkProfile) -> float:
        if link.jitter > 0.0:
            return link.latency + link.jitter * self._draw()
        return link.latency

    # -- verbs -------------------------------------------------------------
    def defers(self, message: Any) -> bool:
        """True when a reply to ``message`` comes back later, through the
        engine, not from :meth:`call` (which inlines this test: one frame
        fewer per RPC)."""
        return self.env is not None and not isinstance(message, self._sync_messages)

    def call(self, address: str, message: Any) -> Any:
        """Send a message for its *effect*.

        Synchronous mode returns the handler's reply (undeliverable ->
        :class:`RPCError`).  Engine mode defers delivery by the link delay
        and returns True; undeliverable messages vanish silently and a
        stage that deregisters mid-flight swallows the message, like a
        real network.

        A degenerate faultless link delivers synchronously even with an
        engine attached, so the fabric composes with experiments that
        expect zero-latency enforcement to take effect within the same
        control tick.  Both synchronous cases run the dispatch below, in
        this frame: it is every in-process control RPC's only fabric hop.
        """
        link = None
        if self.env is not None and not isinstance(message, self._sync_messages):
            link = self._links.get(address, self.link)
            if link.faultless and not self._partitions and self._drop_fn is None:
                link = None
        if link is None:
            handler = self._handler_of(address)
            if handler is None:
                raise StageNotRegistered(f"address {address!r} not bound")
            self.calls += 1
            # A fabric with nothing that could drop a message draws nothing
            # either: skip the checks (the RNG stream is the same).
            if (
                self._drop_fn is not None
                or self._partitions
                or self._links
                or self.link.loss > 0.0
            ):
                reason = self._undeliverable(address, message)
                if reason is not None:
                    self._drop(address, message, reason, leg="request")
                    raise RPCError(f"message to {address!r} dropped")
            return handler(message)
        if self._handler_of(address) is None:
            raise StageNotRegistered(f"address {address!r} not bound")
        self.calls += 1
        reason = self._undeliverable(address, message)
        if reason is not None:
            self._drop(address, message, reason, leg="request")
            return True
        self.deferred += 1
        delay = self._delay(link)
        env = self.env

        def deliver() -> None:
            handler = self._handler_of(address)
            if handler is None:
                # Deregistered while in flight; drop silently.
                return
            msg = message
            if hasattr(msg, "now"):
                msg = replace(msg, now=env.now)
            try:
                handler(msg)
            except StageNotRegistered:
                pass

        env.call_at(env.now + delay, deliver)
        return True

    def call_async(self, address: str, message: Any):
        """Send a message for its *reply*: returns an Event.

        The event succeeds with the handler's return value after the
        request and the reply have each traversed the link; a handler
        exception fails it with :class:`RPCError`.  A lost leg means the
        event never fires -- callers own the deadline.
        """
        if self.env is None:
            raise ConfigError("call_async needs an engine-attached fabric")
        if self._handler_of(address) is None:
            raise StageNotRegistered(f"address {address!r} not bound")
        self.calls += 1
        env = self.env
        done = env.event()
        reason = self._undeliverable(address, message)
        if reason is not None:
            self._drop(address, message, reason, leg="request")
            return done  # never fires
        self.deferred += 1
        link = self.link_for(address)
        delay = self._delay(link)

        def deliver() -> None:
            live = self._handler_of(address)
            if live is None:
                return  # deregistered in flight: request vanishes
            try:
                value = live(message)
            except Exception as exc:  # surface endpoint errors to the waiter
                done.fail(RPCError(str(exc)))
                return
            # Reply leg: second latency/loss draw on the same link.
            reply_reason = self._undeliverable_reply(address)
            if reply_reason is not None:
                self._drop(address, message, reply_reason, leg="reply")
                return  # reply lost: event never fires
            env.call_at(env.now + self._delay(link), lambda: done.succeed(value))

        env.call_at(env.now + delay, deliver)
        return done

    def _undeliverable_reply(self, address: str) -> Optional[str]:
        if self._partitioned_now(address):
            return "partition"
        link = self.link_for(address)
        if link.loss > 0.0 and self._draw() < link.loss:
            return "loss"
        return None
