"""Configuration for the operator service (``padll-repro serve``).

One JSON document describes the whole long-running world: the HTTP
listener, the control loop cadence, the telemetry knobs, the synthetic
workload that keeps the loop fed in smoke environments, the control
fabric's link profile (``faults``: a :class:`~repro.core.fabric.
LinkProfile`), and -- optionally -- an embedded PADLL
policy document (the same schema :mod:`repro.core.config` parses).
It is ``serve``'s one source of world settings: no flag overrides a key.

Example::

    {
      "host": "127.0.0.1", "port": 9178,
      "interval": 0.25, "seed": 7,
      "sample_rate": 0.1, "trace": true,
      "capacity": 400.0,
      "workload": {"jobs": 2, "stages_per_job": 2, "rate": 150.0},
      "faults": {"loss": 0.05, "latency": 0.0},
      "orphan": {"mode": "decay", "orphan_after": 3, "floor": 2.0, "half_life": 5.0},
      "padll": { ... repro.core.config document ... }
    }

The dataclasses below are the schema: a key is a field name, an absent
key keeps the field's default, and an unknown key -- at any level -- is
refused.  ``interval`` is the loop's one period: the live loop ticks at
it and ``orphan.orphan_after`` counts it, so ``orphan`` has no interval
of its own (an ``orphan.interval`` key is refused).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.errors import ConfigError
from repro.core.config import PadllConfig, parse_config, read_json
from repro.core.fabric import LinkProfile
from repro.core.stage import OrphanPolicy
from repro.pfs.client import PFS_MOUNT

__all__ = [
    "ServiceConfig",
    "WorkloadSpec",
    "job_of",
    "load_service_config",
    "parse_service_config",
    "stage_id",
]


def stage_id(job: int, stage: int) -> str:
    """The service's name for stage ``stage`` of job ``job``: ``job{j}/s{k}``,
    the same whether the stage runs in-process or in a stage host."""
    return f"job{job}/s{stage}"


def job_of(stage: str) -> str:
    """The job a stage id names: everything before the first ``/``."""
    return stage.split("/", 1)[0]


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """The synthetic metadata workload the service drives through itself.

    ``rate`` is the *offered* per-stage rate in ops/s (the enforced rate
    is whatever the control loop decides); ``rate=0`` disables the
    driver threads entirely (server-only mode, e.g. when embedding the
    runtime around an externally driven world).
    """

    jobs: int = 2
    stages_per_job: int = 2
    rate: float = 150.0
    ops: Tuple[str, ...] = ("open", "stat", "mkdir", "getxattr")
    path_prefix: str = f"{PFS_MOUNT}/scratch"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"workload needs >= 1 job, got {self.jobs}")
        if self.stages_per_job < 1:
            raise ConfigError(
                f"workload needs >= 1 stage per job, got {self.stages_per_job}"
            )
        if self.rate < 0:
            raise ConfigError(f"workload rate must be >= 0, got {self.rate}")
        if not self.ops:
            raise ConfigError("workload needs at least one op type")

    @property
    def n_stages(self) -> int:
        return self.jobs * self.stages_per_job


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything ``padll-repro serve`` needs to stand up a live world."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (tests); the bound port is
    #: discoverable on the server object after start.
    port: int = 9178
    #: Control-loop period, seconds: the controller's ``loop_interval``,
    #: the live loop's tick and the unit of ``orphan.orphan_after``.
    interval: float = 0.25
    seed: int = 0
    sample_rate: float = 0.05
    trace: bool = True
    #: Algorithm channel capacity when no embedded PADLL document names
    #: an algorithm (default world: proportional sharing over "metadata").
    capacity: float = 400.0
    channel: str = "metadata"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: The control fabric's link: ``loss`` drops collect / enforce RPCs
    #: (seeded draws); ``latency`` / ``jitter`` stall each stage's
    #: endpoint on the loop thread -- live controller lag.  Partitions
    #: are scripted at runtime through the fabric itself.
    faults: LinkProfile = field(default_factory=LinkProfile)
    orphan: Optional[OrphanPolicy] = None
    padll: Optional[PadllConfig] = None
    #: Audit RingLog capacity.
    audit_capacity: int = 4096
    #: /healthz turns unhealthy when the last tick is older than this
    #: (None derives ``max(5 * interval, 2.0)``).
    stale_after: Optional[float] = None
    #: Out-of-process mode: number of stage-host worker processes the
    #: service spawns and supervises.  0 keeps every stage in-process
    #: (the legacy single-process world).
    stage_procs: int = 0
    #: Socket-fabric listener for stage hosts (only used when
    #: ``stage_procs > 0``); port 0 binds an ephemeral port.
    control_host: str = "127.0.0.1"
    control_port: int = 0
    #: Shared secret for admin verbs; None leaves the admin plane open
    #: (trusted-network mode).  Checked constant-time by the server.
    #: ``padll-repro serve`` falls back to ``PADLL_ADMIN_TOKEN`` when unset.
    admin_token: Optional[str] = None
    #: Directory for persistent JSONL audit/event sinks; None keeps the
    #: in-memory ring logs only.
    audit_dir: Optional[str] = None
    #: Size threshold at which a JSONL sink rotates to ``.1``.
    audit_rotate_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigError("service needs a host")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive, got {self.interval}")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {self.capacity}")
        if not self.channel:
            raise ConfigError("service needs an algorithm channel name")
        if self.audit_capacity < 1:
            raise ConfigError(
                f"audit_capacity must be >= 1, got {self.audit_capacity}"
            )
        if self.stale_after is not None and self.stale_after <= 0:
            raise ConfigError(
                f"stale_after must be positive, got {self.stale_after}"
            )
        if self.stage_procs < 0:
            raise ConfigError(
                f"stage_procs must be >= 0, got {self.stage_procs}"
            )
        if not self.control_host:
            raise ConfigError("service needs a control host")
        if not 0 <= self.control_port <= 65535:
            raise ConfigError(
                f"control_port must be in [0, 65535], got {self.control_port}"
            )
        if self.admin_token is not None and not self.admin_token:
            raise ConfigError("admin_token must be non-empty when set")
        if self.audit_rotate_bytes < 1:
            raise ConfigError(
                f"audit_rotate_bytes must be >= 1, got {self.audit_rotate_bytes}"
            )

    @property
    def staleness_threshold(self) -> float:
        if self.stale_after is not None:
            return self.stale_after
        return max(5.0 * self.interval, 2.0)


def _accepted(hint: Any) -> Tuple[type, ...]:
    """The value types a field annotated ``hint`` takes from JSON."""
    if get_origin(hint) is Union:  # Optional[X]
        return tuple(t for arg in get_args(hint) for t in _accepted(arg))
    if hint is float:
        return (int, float)
    return (get_origin(hint) or hint,)


def _from_doc(cls: type, doc: Any, level: str) -> Any:
    """Build dataclass ``cls`` from a JSON object; the dataclass is the schema.

    A key is a field name (anything else is refused, naming ``level``), an
    absent key keeps the field's default, a JSON list becomes a tuple, and
    the object under a dataclass-typed field is built the same way.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{level} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {level} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        accepted = _accepted(hints[key])
        schema = next(filter(is_dataclass, accepted), None)
        if isinstance(value, list):
            value = tuple(value)
        elif schema is not None and value is not None:
            value = (
                parse_config(value)  # the policy document has its own parser
                if schema is PadllConfig
                else _from_doc(schema, value, f"{level} {key!r}")
            )
        if not isinstance(value, accepted):
            raise ConfigError(
                f"{level} key {key!r} takes {hints[key]}, got {value!r}"
            )
        kwargs[key] = value
    return cls(**kwargs)


def parse_service_config(doc: Mapping[str, Any]) -> ServiceConfig:
    """Parse one JSON document into a :class:`ServiceConfig`."""
    return _from_doc(ServiceConfig, doc, "service config")


def load_service_config(path: Union[str, Path]) -> ServiceConfig:
    """Load a service config JSON file."""
    return parse_service_config(read_json(path, "service config JSON"))
