"""The five workloads: module ``<name>.py`` defines ``WORKLOAD``, its class.
Importing this package imports nothing of ``repro``: each workload imports
what it drives when it is set up, so that can be timed too."""

from __future__ import annotations

import importlib

__all__ = ["load"]


def load(name: str):
    return importlib.import_module(f"padllbench.workloads.{name}").WORKLOAD
