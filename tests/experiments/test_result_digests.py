"""Whole-result pins of the experiments that run the control loop's
session machine and its synchronous walk over a deferring fabric.

``GOLDEN_DIGESTS`` pins fig4 / fig5 and the sweep runner pins cell
*parameters*; neither would notice a changed dependability or
control-lag number.  These literals hash every field of every result
point -- floats by ``float.hex``, so a one-ulp change shows -- and were
recorded before the loop's timings were restated in loop intervals.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.experiments.ablations import sweep_control_lag
from repro.experiments.dependability import FAULT_AXES, MODES, run_dependability

#: (axis, mode) -> SHA-256 of ``run_dependability(axis, mode, seed=0,
#: duration=80.0)``.
DEPENDABILITY_DIGESTS = {
    ("loss", "flat"): (
        "7ba0389f17b0b29f419610bc97a13bc638bda8cea3c083717b98e62859fcd2ff"
    ),
    ("loss", "hier"): (
        "d013141e06b99056f1ef18e6cb594828926389d05fb03dcd09ceb9b670a6831c"
    ),
    ("loss", "hier-split"): (
        "1f7e1fe2c83d28b7d0475b22a7f6a3db5eb02382483adeed15df8469d5aca971"
    ),
    ("latency", "flat"): (
        "1a7bcc26051d5cd179a9d8e952472e09c9d6a2a5af1dbfb20fe8f99c960bacba"
    ),
    ("latency", "hier"): (
        "d3c0124d1a4a0f7cee2ed198588b6a3c41bae1b4a3831a06790cc613259fd7ac"
    ),
    ("latency", "hier-split"): (
        "d674bd548e8cb018f411232f9f2ed2ba8b8ddcafe302cb2930169b59d9abdccb"
    ),
    ("partition", "flat"): (
        "115a9034aeae9860182cbe7671bab11e413944dd5ecf21c04fdf65b9e6fda16d"
    ),
    ("partition", "hier"): (
        "e56f454651ead3fec067e42978ef7fb6e15c9e768ace26f0dea18bb5165842df"
    ),
    ("partition", "hier-split"): (
        "a3644b2982d66da0056c1f52b79ee94240a7f9942f1e1e385654a35443793636"
    ),
}

#: SHA-256 of ``sweep_control_lag(seed=0)``.
CONTROL_LAG_DIGEST = (
    "c5d47e87d23a606e76c77d37bc2c2aec3c4b80100d960ad6705353dec8eff5a4"
)


def _field_text(value) -> str:
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def result_digest(points) -> str:
    """SHA-256 over every field of every (dataclass) result point."""
    digest = hashlib.sha256()
    for point in points:
        for f in fields(point):
            digest.update(f"{f.name}={_field_text(getattr(point, f.name))};".encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_dependability_cell_is_pinned():
    assert set(DEPENDABILITY_DIGESTS) == {
        (axis, mode) for axis in FAULT_AXES for mode in MODES
    }


@pytest.mark.parametrize("axis, mode", sorted(DEPENDABILITY_DIGESTS))
def test_dependability_results_unchanged(axis, mode):
    points = run_dependability(axis=axis, mode=mode, seed=0, duration=80.0)
    assert result_digest(points) == DEPENDABILITY_DIGESTS[(axis, mode)]


def test_control_lag_results_unchanged():
    assert result_digest(sweep_control_lag(seed=0)) == CONTROL_LAG_DIGEST
