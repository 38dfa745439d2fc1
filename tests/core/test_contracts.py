"""The control contract, checked in the registries that hold it.

Importing every ``repro`` module fills them: the ``RpcMessage`` verbs,
``repro.core.wire``'s codecs (``register_codec`` raises ``WireError`` at
import when a field tuple drifts from its class) and the
``AllocationAlgorithm`` subclasses.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from dataclasses import dataclass

import repro
from repro.core import rpc, wire
from repro.core.algorithms import AllocationAlgorithm
from repro.core.hierarchy import LocalController
from repro.core.rpc import RpcMessage, StageEndpoint
from repro.errors import ReproError

from tests.core.test_controller import make_stage
from tests.net.test_wire_golden import CORPUS

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)

#: One instance of every verb the golden corpus pins.
SAMPLES = {type(value): value for _, value, _ in CORPUS if isinstance(value, RpcMessage)}


def registered(base):
    """The transitive subclasses of ``base`` a ``repro`` module binds by
    name: ``@dataclass(slots=True)`` leaves the class it replaced among
    ``__subclasses__()``."""
    found, stack = [], [base]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            module = sys.modules[cls.__module__]
            if module.__name__.startswith("repro.") and vars(module).get(cls.__qualname__) is cls:
                found.append(cls)
    return found


def answered(message) -> bool:
    """A stage or a local controller handles ``message`` (a refusal counts)."""
    local = LocalController("rack0")
    local.register(make_stage())
    for handle in (StageEndpoint(make_stage()).handle, local.handle):
        try:
            handle(message)
        except ReproError as exc:
            if "unhandled message type" in str(exc):
                continue
        return True
    return False


def verbs_without(samples=SAMPLES):
    verbs = registered(RpcMessage)
    return {
        "codec": [v.__name__ for v in verbs if v not in wire._EMIT],
        "handler": [v.__name__ for v in verbs if v not in samples or not answered(samples[v])],
    }


def allocators_without_array_verb():
    return [c.__name__ for c in registered(AllocationAlgorithm)
            if "allocate_arrays" not in vars(c)]


def test_every_verb_has_a_codec_and_a_handler():
    assert set(SAMPLES) <= set(registered(RpcMessage))
    assert verbs_without() == {"codec": [], "handler": []}


def test_every_allocator_defines_allocate_arrays():
    assert allocators_without_array_verb() == []


def test_a_stray_verb_and_a_stray_allocator_are_named(monkeypatch):
    @dataclass(frozen=True, slots=True)
    class StrayVerb(RpcMessage):
        payload: int = 0

    class StrayPolicy(AllocationAlgorithm):
        def allocate(self, demands):
            return {}

    for cls in (StrayVerb, StrayPolicy):  # as if defined in repro.core.rpc
        cls.__module__, cls.__qualname__ = rpc.__name__, cls.__name__
        monkeypatch.setattr(rpc, cls.__name__, cls, raising=False)
    named = {"codec": ["StrayVerb"], "handler": ["StrayVerb"]}
    assert verbs_without() == named  # no sample to send
    assert verbs_without({**SAMPLES, StrayVerb: StrayVerb()}) == named
    assert allocators_without_array_verb() == ["StrayPolicy"]
