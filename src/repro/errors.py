"""Exception hierarchy shared across the PADLL reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "PFSError",
    "MDSUnavailable",
    "ConfigError",
    "PolicyError",
    "RPCError",
    "WireError",
    "StageNotRegistered",
    "InterpositionError",
    "TraceFormatError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Misuse or internal failure of the discrete-event engine."""


class ConfigError(ReproError):
    """Invalid configuration value (negative rate, empty schedule, ...)."""


class PolicyError(ReproError):
    """A control-plane policy is malformed or cannot be satisfied."""


class RPCError(ReproError):
    """Control-plane <-> stage communication failure."""


class WireError(RPCError):
    """Malformed or version-incompatible control-plane wire traffic."""


class StageNotRegistered(RPCError):
    """A control-plane call addressed a stage id that is not registered."""


class PFSError(ReproError):
    """Base class for simulated parallel-file-system failures."""


class MDSUnavailable(PFSError):
    """The metadata server is saturated past its unresponsiveness threshold."""


class InterpositionError(ReproError):
    """Failure installing or removing the live monkey-patch layer."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed."""
