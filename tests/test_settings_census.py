"""Settings census: every settable value of the CLI and of every class
under ``src/repro``, counted and pinned.

The rule: a value is settable only where two programs -- ``src/repro``,
the CLI, ``benchmarks/`` and ``bench/``, not tests or examples -- set it
differently; a value with one setting is a module constant, and
deployment settings (addresses, paths, credentials) stay configurable.

A class's settable values are its constructor parameters with a default
(an ``__init__`` default, a dataclass field default, a NamedTuple field
default).  Every class defined under ``src/repro`` that has one has a
row in :data:`CENSUS`: the count, and why those values stay settable --
one or more of :data:`CATEGORIES`, a colon, and what they serve.  A new
class or a new defaulted parameter fails here until it is counted; a
change that raises a count names, in its description, the two programs
that set the new value differently.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
from typing import Dict, Tuple

import pytest

from repro.cli import build_parser
from tests.test_module_census import MODULES, REASONS

CATEGORIES = (
    "setting",  # two programs set it differently, or an operator's document does
    "record",  # messages, stats, results, identities, requests: per-value data
    "collaborator",  # an object the class is handed to use: env, clock, sinks, hooks
) + REASONS

#: class name -> (its defaulted constructor parameters, why they stay).
CENSUS: Dict[str, Tuple[int, str]] = {
    # -- core ----------------------------------------------------------------
    "JobDemand": (1, "record: one job's demand in an allocator call"),
    "PriorityPartition": (1, "setting: the policy document's 'default'"),
    "ProportionalSharing": (1, "setting: the policy document's 'headroom'"),
    "Channel": (3, "setting, record: rate and burst per channel; now is the "
                "creation instant"),
    "ChannelSpec": (1, "setting: a channel's 'initial_rate' in the policy document"),
    "PadllConfig": (1, "record: the parsed policy document"),
    "JobInfo": (3, "record: the controller's job table entry"),
    "ControlPlaneConfig": (4, "setting, fault path: loop_interval, algorithm_channel and "
                           "history_limit differ by program; max_missed_collects "
                           "enables liveness eviction, set only by tests/core"),
    "ControlPlane": (5, "collaborator: fabric, config, algorithm, telemetry and "
                     "the sharded plane's array sink"),
    "Decision": (1, "record: one classification"),
    "ClassifierRule": (5, "setting: the policy document's channel filters"),
    "Classifier": (2, "setting: rules and PFS mounts per stage"),
    "LinkProfile": (3, "setting: the operator's document ('faults'); dependability "
                    "and the ablations differ"),
    "FaultyFabric": (8, "collaborator, setting: env, drop_fn, telemetry, clock, "
                     "transport are handed in; link, seed and sync_messages differ "
                     "by experiment"),
    "RuleScope": (1, "setting: a policy's 'job' in the policy document"),
    "PolicyRule": (3, "setting: a policy's burst, priority and enabled"),
    "Request": (6, "record: one request"),
    "RingLog": (1, "setting: history_limit, audit_capacity"),
    "Ping": (1, "record: a wire message"),
    "CollectStats": (1, "record: a wire message"),
    "EnforceRate": (1, "record: a wire message"),
    "CreateChannel": (1, "record: a wire message"),
    "CollectSession": (8, "record: one endpoint's collect state"),
    "OrphanPolicy": (4, "setting: the operator's document and experiments.dependability"),
    "StageIdentity": (3, "record: a stage's identity"),
    "DataPlaneStage": (3, "setting, collaborator: pfs_mounts per world; telemetry and "
                       "now are handed in"),
    "TokenBucket": (2, "setting, record: capacity is a channel's burst; now is "
                    "the creation instant"),
    "Frame": (1, "record: one wire frame"),
    # -- experiments -----------------------------------------------------------
    "JobSpec": (7, "setting: each experiment's jobs"),
    "_JobRuntime": (9, "record: a running job's state in a replay world"),
    "ReplayWorld": (11, "setting, collaborator: each experiment's world (algorithm_"
                    "channel is 'getattr' in ONE_PIPELINE_DIGESTS' per-op world; "
                    "placement None, 'job' or 'split'); fabric_factory and "
                    "telemetry are handed in"),
    # -- interpose -------------------------------------------------------------
    "LiveTokenBucket": (3, "setting, collaborator: capacity is a channel's burst; "
                        "clock and sleep are handed in"),
    "LiveStage": (3, "setting, collaborator: pfs_mounts from the layout; clock and "
                  "telemetry are handed in"),
    "LiveControlLoop": (2, "collaborator: clock and on_tick"),
    "Interposer": (1, "paper verb: PADLL's shim intercepts data calls too; "
                   "programs pass only False"),
    # -- lint ------------------------------------------------------------------
    "LintConfig": (1, "setting: the project root, found from where lint runs"),
    "LintResult": (3, "record: one lint run's result"),
    "Finding": (2, "record: one finding"),
    "ImportResolver": (2, "record: the module a resolver resolves from"),
    # -- monitoring ------------------------------------------------------------
    "Collector": (3, "setting, collaborator: period is each world's sample_period; "
                  "defer is the harness's tick phase; registry is handed in"),
    "TimeSeries": (1, "record: the series' name"),
    # -- net -------------------------------------------------------------------
    "WireConnection": (4, "collaborator, setting: on_push and on_close hooks; name and "
                       "deadline per link"),
    "SocketListener": (7, "setting, collaborator: addresses are deployment settings; "
                       "on_connect, on_push and on_close are hooks"),
    "SocketTransport": (1, "setting: the bench wire workload and the service differ"),
    # -- pfs -------------------------------------------------------------------
    "PFSClient": (1, "record: the client's name"),
    "ClusterConfig": (3, "setting: dne scaling and harm differ"),
    "LustreCluster": (1, "setting: its ClusterConfig"),
    "MDSConfig": (3, "setting: each world's MDS"),
    "MetadataServer": (2, "setting, record: its MDSConfig and its name"),
    # -- runner ----------------------------------------------------------------
    "Cell": (2, "record: one sweep cell"),
    "SweepRunner": (4, "setting, collaborator: the sweep verb's --jobs and "
                    "--cache-dir; log is handed in"),
    # -- service ---------------------------------------------------------------
    "AuditRecord": (3, "record: one admin action"),
    "AuditLog": (4, "setting, collaborator: audit_capacity; clock, events and sink "
                 "are handed in"),
    "WorkloadSpec": (5, "setting: the operator's document"),
    "ServiceConfig": (20, "setting: the operator's document"),
    "HostSupervisor": (2, "collaborator: telemetry and clock"),
    "ServiceRuntime": (5, "setting, collaborator: its ServiceConfig; clock, "
                       "controller, telemetry and loop are handed in"),
    "OperatorServer": (2, "setting: the document's host and port"),
    "JsonlSink": (1, "setting: the document's audit_rotate_bytes"),
    "StageHost": (2, "setting, collaborator: seed from argv; clock is handed in"),
    "LiveWorkload": (1, "setting: per-host seeds"),
    # -- simulation ------------------------------------------------------------
    "Timeout": (1, "record: the value a timeout yields"),
    "Process": (1, "record: the process's name"),
    "Environment": (1, "collaborator: telemetry"),
    "ShardedConfig": (7, "setting: the sharded verb's flags and fig4-sharded"),
    "ShardedSimulation": (3, "collaborator: algorithm, telemetry and epoch_hook"),
    "FluidConfig": (2, "setting: the sharded verb's --seed and --clients-per-stage"),
    "FluidBlock": (1, "reference: the vector tick is checked against the scalar one"),
    "Ticker": (3, "pinned by PATCHED: Ticker.__init__; start, name and defer are "
               "each ticker's phase"),
    # -- telemetry -------------------------------------------------------------
    "TelemetryConfig": (3, "setting: the operator's document and trace run's flags"),
    "Telemetry": (1, "setting: its TelemetryConfig"),
    "Tracer": (2, "setting: its TelemetryConfig's seed and sample_rate"),
    # -- workloads -------------------------------------------------------------
    "AbciTraceConfig": (7, "setting: the aggregate and the hot-MDT trace differ"),
    "IORConfig": (2, "setting: fig4's read and write panels, per seed"),
    "TraceReplayer": (3, "pinned by PATCHED: TraceReplayer.__init__, to which the "
                      "benchmark passes acceleration and rate_scale; kinds per panel"),
    "ReplayDriver": (3, "pinned by PATCHED, reference: ReplayDriver.__init__; job_id "
                     "and start per job; batch_submit, or the per-request _unroll "
                     "the fused replay is checked against"),
    "OpTrace": (2, "record: a trace's sample period and start"),
}

#: Options and positionals of every (sub)command of ``padll-repro``.
CLI_VALUES = 44


def cli_values(parser: argparse.ArgumentParser) -> int:
    """Options and positionals of every (sub)command, bar --help/--version."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(cli_values(sub) for sub in action.choices.values())
        elif not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            count += 1
    return count


def _defaulted(cls: type) -> int:
    """Parameters with a default of the constructor ``cls`` defines itself."""
    ctor = vars(cls).get("__init__") or vars(cls).get("__new__")
    if ctor is None:
        return 0
    if isinstance(ctor, staticmethod):
        ctor = ctor.__func__
    return sum(
        p.default is not inspect.Parameter.empty
        for p in inspect.signature(ctor).parameters.values()
    )


def _discover() -> Dict[str, Tuple[str, int]]:
    """class name -> (module, defaulted parameters), for every class a
    ``src/repro`` module defines that has at least one."""
    found: Dict[str, Tuple[str, int]] = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if not inspect.isclass(obj) or obj.__module__ != name or obj.__qualname__ != attr:
                continue
            count = _defaulted(obj)
            if not count:
                continue
            assert attr not in found, (
                f"{attr} is defined in {found[attr][0]} and {name}; "
                "the census keys classes by name"
            )
            found[attr] = (name, count)
    return found


DISCOVERED = _discover()


def test_every_class_with_a_default_has_a_row():
    missing = {name: DISCOVERED[name] for name in set(DISCOVERED) - set(CENSUS)}
    assert missing == {}, "count these classes' settable values in CENSUS"
    assert set(CENSUS) - set(DISCOVERED) == set(), (
        "these rows name no class with a defaulted parameter any more; drop them"
    )


def test_every_row_states_why():
    unexplained = {}
    for name, (_count, why) in CENSUS.items():
        categories, colon, what = why.partition(":")
        if not colon or not what.strip() or not all(
            c.strip() in CATEGORIES for c in categories.split(",")
        ):
            unexplained[name] = why
    assert unexplained == {}, f"each row reads '<{CATEGORIES} ...>: what it serves'"


@pytest.mark.parametrize("name", ["padll-repro", *sorted(CENSUS)])
def test_settable_values_are_pinned(name):
    if name == "padll-repro":
        count, pinned = cli_values(build_parser()), CLI_VALUES
    else:
        count, pinned = DISCOVERED.get(name, (None, 0))[1], CENSUS[name][0]
    assert count == pinned, f"{name}: {count} settable values, pinned {pinned}"


def test_discovery_sees_each_kind_of_default():
    assert DISCOVERED["Frame"] == ("repro.core.wire", 1)  # a NamedTuple field
    assert DISCOVERED["ServiceConfig"] == ("repro.service.config", 20)  # dataclass fields
    assert DISCOVERED["ReplayWorld"] == ("repro.experiments.harness", 11)  # __init__
