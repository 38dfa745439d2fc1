"""Real-network delivery for the control-plane wire.

This package holds everything the transport refactor must keep *out* of
the deterministic layer: sockets, reader threads, wall-clock deadlines.
The codec it speaks is :mod:`repro.core.wire`; the transport it
extends is :class:`repro.core.transport.InProcTransport`; fault injection
stays in :class:`repro.core.fabric.FaultyFabric`, which decorates this
transport exactly as it decorates the in-process one.
"""

from repro.net.socket_transport import (
    RemoteEndpoint,
    SocketListener,
    SocketTransport,
    WireConnection,
)

__all__ = ["RemoteEndpoint", "SocketListener", "SocketTransport", "WireConnection"]
