"""Real-network delivery for the control-plane wire.

This package holds everything the transport refactor must keep *out* of
the deterministic layer: sockets, reader threads, wall-clock deadlines.
The codec it speaks is :mod:`repro.core.wire`; the transport it
extends is :class:`repro.core.transport.InProcTransport`; fault injection
stays in :class:`repro.core.fabric.FaultyFabric`, which decorates this
transport exactly as it decorates the in-process one.
"""

from repro import lazy_exports

_EXPORTS = {
    "RemoteEndpoint": "repro.net.socket_transport",
    "SocketListener": "repro.net.socket_transport",
    "SocketTransport": "repro.net.socket_transport",
    "WireConnection": "repro.net.socket_transport",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
