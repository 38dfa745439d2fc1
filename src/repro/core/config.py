"""Declarative PADLL configuration (JSON) for administrators.

The control plane's Python API is what programs use; operators want a
reviewable config file.  This module parses a JSON document into channel
layouts, classifier rules, policy rules and a control algorithm, and can
apply them to stages / install them on a control plane::

    {
      "pfs_mounts": ["/lustre"],
      "channels": [
        {"id": "metadata", "classes": ["metadata", "dir_mgmt"]},
        {"id": "opens", "ops": ["open", "creat"], "priority": 10}
      ],
      "policies": [
        {"name": "cap-md", "channel": "metadata",
         "schedule": {"type": "constant", "rate": 100000}},
        {"name": "steps", "channel": "opens", "job": "job7",
         "schedule": {"type": "stepped", "period": 360,
                      "rates": [10000, 50000, 20000]}}
      ],
      "algorithm": {"type": "proportional", "capacity": 300000,
                    "reservations": {"job1": 40000}}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ConfigError
from repro.core.algorithms import (
    AllocationAlgorithm,
    DominantResourceFairness,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
)
from repro.core.differentiation import ClassifierRule
from repro.core.policies import (
    ConstantRate,
    PolicyRule,
    RateSchedule,
    RuleScope,
    SteppedRate,
)
from repro.core.requests import OperationClass, OperationType

__all__ = [
    "ChannelSpec", "PadllConfig", "load_config", "parse_config", "parse_policy",
    "read_json",
]

_CLASS_ALIASES: Mapping[str, OperationClass] = {
    "data": OperationClass.DATA,
    "metadata": OperationClass.METADATA,
    "ext_attr": OperationClass.EXTENDED_ATTRIBUTES,
    "xattr": OperationClass.EXTENDED_ATTRIBUTES,
    "dir_mgmt": OperationClass.DIRECTORY_MANAGEMENT,
    "directory": OperationClass.DIRECTORY_MANAGEMENT,
}


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """One enforcement channel plus the rule that routes into it."""

    channel_id: str
    rule: ClassifierRule
    initial_rate: Optional[float] = None

    def apply(self, stage, now: float = 0.0) -> None:
        """Create the channel and install the rule on ``stage``."""
        rate = self.initial_rate if self.initial_rate is not None else float("inf")
        stage.create_channel(self.channel_id, rate=rate, now=now)
        stage.add_classifier_rule(self.rule)


@dataclass(slots=True)
class PadllConfig:
    """A parsed configuration document."""

    pfs_mounts: Optional[tuple[str, ...]]
    channels: List[ChannelSpec]
    policies: List[PolicyRule]
    algorithm: Optional[AllocationAlgorithm]
    reservations: Dict[str, float] = field(default_factory=dict)

    def install_on(self, controller) -> None:
        """Land the document's control side on ``controller``: policies,
        algorithm and reservations.  Stages take the channels
        (:meth:`ChannelSpec.apply`) wherever they are built."""
        for policy in self.policies:
            controller.install_policy(policy)
        if self.algorithm is not None:
            controller.algorithm = self.algorithm
        for job_id, rate in self.reservations.items():
            controller.set_reservation(job_id, rate)


#: The keys each entry of a document may carry; anything else is refused,
#: so a typo (``"jbo"``, ``"path"``, ``"headrom"``) cannot silently drop a
#: filter or fall back to a default.
_CHANNEL_KEYS = frozenset(
    {"id", "ops", "classes", "paths", "jobs", "rule_name", "priority", "initial_rate"}
)
_POLICY_KEYS = frozenset({"name", "channel", "job", "schedule", "burst", "priority", "enabled"})
_SCHEDULE_KEYS: Mapping[str, frozenset] = {
    "constant": frozenset({"type", "rate"}),
    "stepped": frozenset({"type", "steps", "period", "rates"}),
}
_ALGORITHM_KEYS: Mapping[str, frozenset] = {
    kind: frozenset({"type", "reservations"} | extra)
    for kind, extra in {
        "static": {"rate_per_job"},
        "priority": {"rates", "default"},
        "proportional": {"capacity", "headroom"},
        "drf": {"capacities", "usages"},
    }.items()
}


def _require(doc: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return doc[key]


def _known_keys(doc: Any, allowed: frozenset, context: str) -> None:
    """Refuse an entry that is not an object or carries a key not in ``allowed``."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{context} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _typed(doc: Any, allowed: Mapping[str, frozenset], context: str) -> str:
    """The entry's ``type``, once its keys are known for that type."""
    _known_keys(doc, frozenset().union(*allowed.values()), context)
    kind = _require(doc, "type", context)
    if kind in allowed:
        _known_keys(doc, allowed[kind], context)
    return kind


def _parse_schedule(doc: Mapping[str, Any], context: str) -> RateSchedule:
    context = f"{context} schedule"
    kind = _typed(doc, _SCHEDULE_KEYS, context)
    if kind == "constant":
        return ConstantRate(float(_require(doc, "rate", context)))
    if kind == "stepped":
        if "steps" in doc:
            steps = [(float(t), float(r)) for t, r in doc["steps"]]
            return SteppedRate(steps)
        period = float(_require(doc, "period", context))
        rates = [float(r) for r in _require(doc, "rates", context)]
        return SteppedRate.every(period, rates)
    raise ConfigError(f"{context}: unknown schedule type {kind!r}")


def _op(name: str, context: str) -> OperationType:
    try:
        return OperationType(name)
    except ValueError:
        raise ConfigError(f"{context}: unknown op {name!r}") from None


def _parse_channel(doc: Mapping[str, Any], index: int) -> ChannelSpec:
    context = f"channels[{index}]"
    _known_keys(doc, _CHANNEL_KEYS, context)
    channel_id = str(_require(doc, "id", context))
    op_types = None
    op_classes = None
    if "ops" in doc:
        op_types = frozenset(_op(name, context) for name in doc["ops"])
    if "classes" in doc:
        try:
            op_classes = frozenset(
                _CLASS_ALIASES[name] for name in doc["classes"]
            )
        except KeyError as exc:
            raise ConfigError(
                f"{context}: unknown operation class {exc.args[0]!r}"
            ) from None
    prefixes = tuple(doc["paths"]) if "paths" in doc else None
    jobs = frozenset(doc["jobs"]) if "jobs" in doc else None
    rule = ClassifierRule(
        name=str(doc.get("rule_name", f"{channel_id}-rule")),
        channel_id=channel_id,
        op_types=op_types,
        op_classes=op_classes,
        path_prefixes=prefixes,
        job_ids=jobs,
        priority=int(doc.get("priority", 0)),
    )
    initial = doc.get("initial_rate")
    return ChannelSpec(
        channel_id=channel_id,
        rule=rule,
        initial_rate=None if initial is None else float(initial),
    )


def parse_policy(doc: Mapping[str, Any], context: str = "policy") -> PolicyRule:
    """One policy document -> :class:`PolicyRule`: a ``policies`` entry of
    a PADLL document, or what an admin verb builds from its parameters.
    ``context`` prefixes error messages."""
    _known_keys(doc, _POLICY_KEYS, context)
    return PolicyRule(
        name=str(_require(doc, "name", context)),
        scope=RuleScope(
            channel_id=str(_require(doc, "channel", context)),
            job_id=doc.get("job"),
        ),
        schedule=_parse_schedule(_require(doc, "schedule", context), context),
        burst=None if doc.get("burst") is None else float(doc["burst"]),
        priority=int(doc.get("priority", 0)),
        enabled=bool(doc.get("enabled", True)),
    )


def _parse_algorithm(
    doc: Mapping[str, Any],
) -> tuple[AllocationAlgorithm, Dict[str, float]]:
    kind = _typed(doc, _ALGORITHM_KEYS, "algorithm")
    reservations = {
        str(job): float(rate)
        for job, rate in doc.get("reservations", {}).items()
    }
    if kind == "static":
        return StaticPartition(float(_require(doc, "rate_per_job", "algorithm"))), reservations
    if kind == "priority":
        rates = {
            str(j): float(r) for j, r in _require(doc, "rates", "algorithm").items()
        }
        default = doc.get("default")
        return (
            PriorityPartition(rates, None if default is None else float(default)),
            reservations,
        )
    if kind == "proportional":
        return (
            ProportionalSharing(
                float(_require(doc, "capacity", "algorithm")),
                headroom=float(doc.get("headroom", 1.05)),
            ),
            reservations,
        )
    if kind == "drf":
        return (
            DominantResourceFairness(
                capacities={
                    str(k): float(v)
                    for k, v in _require(doc, "capacities", "algorithm").items()
                },
                usages={
                    str(j): {str(k): float(v) for k, v in u.items()}
                    for j, u in _require(doc, "usages", "algorithm").items()
                },
            ),
            reservations,
        )
    raise ConfigError(f"algorithm: unknown type {kind!r}")


def parse_config(doc: Mapping[str, Any]) -> PadllConfig:
    """Parse an already-decoded configuration document."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"pfs_mounts", "channels", "policies", "algorithm"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    mounts = doc.get("pfs_mounts")
    channels = [
        _parse_channel(c, i) for i, c in enumerate(doc.get("channels", []))
    ]
    seen = set()
    for spec in channels:
        if spec.channel_id in seen:
            raise ConfigError(f"duplicate channel id {spec.channel_id!r}")
        seen.add(spec.channel_id)
    policies = [
        parse_policy(p, f"policies[{i}]")
        for i, p in enumerate(doc.get("policies", []))
    ]
    for policy in policies:
        if channels and policy.scope.channel_id not in seen:
            raise ConfigError(
                f"policy {policy.name!r} targets unknown channel "
                f"{policy.scope.channel_id!r}"
            )
    algorithm = None
    reservations: Dict[str, float] = {}
    if "algorithm" in doc and doc["algorithm"] is not None:
        algorithm, reservations = _parse_algorithm(doc["algorithm"])
    return PadllConfig(
        pfs_mounts=None if mounts is None else tuple(str(m) for m in mounts),
        channels=channels,
        policies=policies,
        algorithm=algorithm,
        reservations=reservations,
    )


def read_json(path: Union[str, Path], what: str = "JSON") -> Any:
    """The document in JSON file ``path``; a missing file or invalid JSON
    is a :class:`ConfigError` naming ``what`` the file holds and its path."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid {what} in {path}: {exc}") from None


def load_config(path: Union[str, Path]) -> PadllConfig:
    """Load and parse a JSON configuration file."""
    return parse_config(read_json(path))
