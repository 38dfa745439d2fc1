"""The program runs on its declared dependencies: numpy and nothing else.

``pyproject.toml`` declares ``dependencies = ["numpy"]``.  A fresh
interpreter with SciPy blocked generates both kinds of trace, runs one
short Fig. 4 cell, and imports what every benchmark workload and the CLI
import; every non-stdlib package that adds must be numpy or repro.

The same import set compiles no module ``tests/test_module_census.py``
keeps without a program user: such a module is paid for on every cold
start and read by none of them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from tests.test_module_census import KEPT

#: The benchmark workloads' ``imports`` (bench/padllbench/workloads) and the CLI.
ENTRY_MODULES = (
    "numpy",
    "repro.experiments.fig4",
    "repro.telemetry",
    "repro.experiments.harness",
    "repro.core.algorithms",
    "repro.core.controller",
    "repro.interpose",
    "repro.net",
    "repro.simulation.sharded",
    "repro.cli",
)

SCRIPT = f"""
import sys

sys.modules["scipy"] = None
before = set(sys.modules)

import importlib

for name in {ENTRY_MODULES!r}:
    importlib.import_module(name)

from repro.experiments.fig4 import run_fig4_metadata
from repro.workloads.abci import generate_aggregate_trace, generate_mdt_trace

assert generate_mdt_trace(seed=0).n_samples == 1800
assert generate_aggregate_trace(seed=0, duration=3600.0).n_samples == 60
result = run_fig4_metadata("open", seed=0, duration=360.0, step_period=360.0, drain_tail=60.0)
assert result.series, "the Fig. 4 cell produced no series"

# A module without a file is no installed package: Cython's runtime shims
# that numpy's extensions register, multiprocessing's __mp_main__ alias.
added = {{
    name.partition(".")[0]
    for name in set(sys.modules) - before
    if getattr(sys.modules[name], "__file__", None) is not None
}}
print(sorted(added - set(sys.stdlib_module_names)))
"""


def test_declared_dependencies_are_the_whole_runtime_closure():
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "['numpy', 'repro']"


def test_the_entry_imports_load_no_module_kept_without_a_user():
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(name for name in sys.modules if name.startswith('repro')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout.strip().splitlines()[-1]))
    assert sorted(loaded & set(KEPT)) == []
