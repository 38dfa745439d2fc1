"""Settings census: every settable value of the CLI and of the classes
that model the world, counted and pinned.

The rule: a value is settable only where two programs -- ``src/repro``,
the CLI, ``benchmarks/`` and ``bench/``, not tests or examples -- set it
differently; a value with one setting is a module constant, and
deployment settings (addresses, paths, credentials) stay configurable.
A change that raises a count below names, in its description, the two
programs that set the new value differently.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import fields

import pytest

from repro.cli import build_parser
from repro.core import stage
from repro.core.controller import ControlPlaneConfig
from repro.core.fabric import FaultyFabric
from repro.core.ringlog import RingLog
from repro.core.token_bucket import TokenBucket
from repro.experiments.harness import JobSpec, ReplayWorld
from repro.lint import LintConfig
from repro.pfs.cluster import ClusterConfig
from repro.pfs.mds import MDSConfig
from repro.simulation.sharded import FluidConfig, ShardedSimulation


def cli_values(parser: argparse.ArgumentParser) -> int:
    """Options and positionals of every (sub)command, bar --help/--version."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(cli_values(sub) for sub in action.choices.values())
        elif not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            count += 1
    return count


def parameters(cls) -> int:
    return len(inspect.signature(cls).parameters)


#: name -> (its settable values now, the pinned count).
CENSUS = {
    "padll-repro": (lambda: cli_values(build_parser()), 50),
    "FluidConfig": (lambda: len(fields(FluidConfig)), 2),
    "ClusterConfig": (lambda: len(fields(ClusterConfig)), 8),
    "MDSConfig": (lambda: len(fields(MDSConfig)), 3),
    "ControlPlaneConfig": (lambda: len(fields(ControlPlaneConfig)), 4),
    "ReplayWorld": (lambda: parameters(ReplayWorld), 13),
    "JobSpec": (lambda: len(fields(JobSpec)), 9),
    "TokenBucket": (lambda: parameters(TokenBucket), 3),
    "RingLog": (lambda: parameters(RingLog), 1),
    "FaultyFabric": (lambda: parameters(FaultyFabric), 8),
    "ShardedSimulation": (lambda: parameters(ShardedSimulation), 4),
    "StageConfig": (lambda: int(hasattr(stage, "StageConfig")), 0),
    "LintConfig": (lambda: len(fields(LintConfig)), 1),
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_settable_values_are_pinned(name):
    count, pinned = CENSUS[name]
    assert count() == pinned, f"{name}: {count()} settable values, pinned {pinned}"
