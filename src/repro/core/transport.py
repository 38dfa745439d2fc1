"""The transport under the control-plane fabric.

:class:`~repro.core.fabric.FaultyFabric` used to *be* the address ->
handler registry; it is now a fault-injection decorator over a
transport.  There is one transport type:

* :class:`InProcTransport` (here): a dict of handlers, synchronous call
  -- byte-for-byte the behaviour every existing experiment and test
  depends on;
* :class:`~repro.net.socket_transport.SocketTransport` (in
  :mod:`repro.net`, outside the deterministic layer because it owns
  threads and sockets) extends it: local handlers plus remote endpoints
  reached over framed TCP/Unix-domain connections.

The contract is deliberately tiny -- bind/unbind/bound/handler/call --
because everything interesting (loss, latency, partitions, counters)
lives in the decorating fabric and must behave identically over both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import RPCError, StageNotRegistered

__all__ = ["InProcTransport"]


class InProcTransport:
    """Address -> endpoint registry with a synchronous ``call`` verb:
    in process, a dict lookup and a call.

    ``handler`` returns the callable bound at an address (or None): a
    socket connection serves inbound requests through it.  The fabric
    binds ``_handlers.get`` itself, once, so a dispatch costs no Python
    frame for the lookup; the registry dict is therefore never replaced,
    only mutated.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable[[Any], Any]] = {}

    def bind(self, address: str, handler: Callable[[Any], Any]) -> None:
        if address in self._handlers:
            raise RPCError(f"address {address!r} already bound")
        self._handlers[address] = handler

    def unbind(self, address: str) -> None:
        if address not in self._handlers:
            raise StageNotRegistered(f"address {address!r} not bound")
        del self._handlers[address]

    def bound(self, address: str) -> bool:
        return address in self._handlers

    def handler(self, address: str) -> Optional[Callable[[Any], Any]]:
        return self._handlers.get(address)

    def call(self, address: str, message: Any) -> Any:
        handler = self._handlers.get(address)
        if handler is None:
            raise StageNotRegistered(f"address {address!r} not bound")
        return handler(message)

    def addresses(self) -> Tuple[str, ...]:
        return tuple(self._handlers)
