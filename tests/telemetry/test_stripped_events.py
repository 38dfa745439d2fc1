"""What the control loop did, apart from how its collect was shaped.

A ``control.cycle`` event's ``observed`` field renders the collect's
replies, so its shape is the plane's topology: per stage and channel, or
per local and job.  Everything else an event stream carries -- every
other ``control.cycle`` field (demand, reservations, rates, policy rates,
deltas) and every other event kind -- is what the loop decided, and must
not depend on how stages reach the plane.

This pins that remainder: each event of the fig4 / fig5 pinned-export
worlds and of the one-pipeline worlds as one ``json.dumps(sort_keys=True)``
line, with ``observed`` and ``hierarchical`` dropped from every
``control.cycle`` line, hashed.  The hashes were recorded before the
per-stage plane was folded into the one plane whose endpoints are locals,
and hold on both.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.fig5 import run_fig5
from repro.telemetry import Telemetry, TelemetryConfig, run_traced_fig4
from repro.telemetry.export import events_jsonl

from tests.experiments.test_bit_identity import ONE_PIPELINE_WORLDS

#: Fields of a ``control.cycle`` line that name the plane's topology.
TOPOLOGY_FIELDS = ("observed", "hierarchical")

STRIPPED_EVENTS = {
    "fig4": (
        "39fac69d4ec9b85a6f06f10c23d5090fe75c5a236de3cc5fa08f68ecb7ede618"
    ),
    "fig5": (
        "bef865776f84c88519abf58bedb86a306df1f9b8fa250803fab1be1a02243467"
    ),
    "3x2-per-op": (
        "b4c8c13144d7f6081fc9597c224ea43087b5183c2354cb84013ff0abb49c53a5"
    ),
    "3x3-hier-split": (
        "6a6f130811112e638fbcc09ca29a049601678f0c7ba55b877f76146094ea4357"
    ),
    "4x4-per-class": (
        "e35c68964d210ee04849c3ec5a3eb3b04517e91318f4cc99d46cb11aab0d08f9"
    ),
    "rules-removed-1": (
        "633ecba3d669a319c5275d4c1b7695b495df1ffcd5d5a5479a02855d6026a44e"
    ),
    "rules-removed-3": (
        "e5c596ea8f97c67c6f64fc710595ce7010e0de251f97f8d409a6609a9dc65b7d"
    ),
}


def stripped_events_digest(jsonl: str) -> str:
    """SHA-256 of an events JSONL export's lines, re-dumped with sorted
    keys and the topology fields dropped from ``control.cycle`` lines."""
    digest = hashlib.sha256()
    for line in jsonl.splitlines():
        doc = json.loads(line)
        if doc["kind"] == "control.cycle":
            for name in TOPOLOGY_FIELDS:
                doc["fields"].pop(name, None)
        digest.update(json.dumps(doc, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _events_jsonl(name: str) -> str:
    if name == "fig4":
        return run_traced_fig4(seed=0, trace=False).events_jsonl
    telemetry = Telemetry(TelemetryConfig(seed=0, sample_rate=0.05, trace=False))
    if name == "fig5":
        run_fig5("proportional", seed=0, duration=600.0, telemetry=telemetry)
    else:
        ONE_PIPELINE_WORLDS[name](telemetry).run(200.0)
    return events_jsonl(telemetry.events.events)


@pytest.mark.parametrize("name", sorted(STRIPPED_EVENTS))
def test_stripped_events_digest(name):
    jsonl = _events_jsonl(name)
    assert '"control.cycle"' in jsonl
    assert stripped_events_digest(jsonl) == STRIPPED_EVENTS[name]
