"""Whole-result pins of experiments no figure digest covers.

``GOLDEN_DIGESTS`` pins fig4 / fig5 and the sweep runner pins cell
*parameters*; neither would notice a changed dependability, control-lag,
harm, failover, cost-aware, fig4 data-panel (read or write) or ablation number.  These
literals hash every field of every result point -- floats by
``float.hex`` and arrays by their bytes, so a one-ulp change shows.  The
dependability and control-lag literals were recorded before the loop's
timings were restated in loop intervals; the rest before the model
settings they exercise (MDS degradation and failure, failover delay and
outage replay, the stage's channel construction, the OSS path) became
module constants.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import fields

import numpy as np
import pytest

from repro.experiments.ablations import (
    sweep_burst_size,
    sweep_control_lag,
    sweep_loop_interval,
)
from repro.experiments.cost_aware import run_cost_aware
from repro.experiments.dependability import FAULT_AXES, MODES, run_dependability
from repro.experiments.failover import run_failover
from repro.experiments.fig4 import run_fig4_data
from repro.experiments.harm import run_harm

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

#: SHA-256 of ``sweep_control_lag(seed=0)``.  Its jobs start 60 s apart:
#: re-recorded when a stage's first collect window began to open at its
#: start rather than at t = 0.
CONTROL_LAG_DIGEST = (
    "134c08738f3baebed112a426ea52e395dc204ac03d1703634d8e23e8cb196689"
)


#: protected -> SHA-256 of ``run_harm(protected, seed=0, duration=180.0)``:
#: the unprotected MDS degrades, serves at the degraded rate and fails.
HARM_DIGESTS = {
    False: "3225240887af341a03255effdce18ad83f14d56742f7c7d44cbc415ce3d01c12",
    True: "c75273b37d4848d046600b4000b647cb1bf129a5a4ea45b6b687230628949d6f",
}

#: protected -> SHA-256 of ``run_failover(protected, seed=0,
#: duration=1000.0)``: the kill, the standby's takeover delay and the
#: outage replay all fall inside the run.
FAILOVER_DIGESTS = {
    False: "c93b50e4db6fb5f4d4760a0c44784602089f0dcc1ea6d5b31efd9310493a4793",
    True: "6c1080bca3ad4703c2320ac822e978cc3d490f144d996bfc56d935d2b531bb70",
}

#: allocator -> SHA-256 of ``run_cost_aware(allocator, seed=0,
#: duration=120.0)``.
COST_AWARE_DIGESTS = {
    "cost-aware": "3ed0174cf93cffa1341c99ef08b603135e7e6b16ee8cf8b70bf6e25fafd2c958",
    "ops-fair": "15913ee708e55e7c6038b82d5d42db5260bbb2e01d7698178b892309f8777432",
}

#: SHA-256 of ``run_fig4_data("write", seed=0, duration=120.0)``.
FIG4_WRITE_DIGEST = (
    "419050e616be0fd4abc66a9161fcb50bddd2c99730f80a38c94161ccd7203240"
)

#: SHA-256 of ``run_fig4_data("read", seed=0, duration=120.0)``.
FIG4_READ_DIGEST = (
    "e389b704ca3c7b925bd2c6f6973f5d263fc8bc2a54e61fef563f2dd15907b1e2"
)

#: SHA-256 of ``sweep_burst_size(seed=0, duration=120.0)``.
BURST_SIZE_DIGEST = (
    "5185bb4bfb422bfc76a9ef93db7c4a25e0c880e60d2ca4da83e511409fa37d2c"
)

#: SHA-256 of ``sweep_loop_interval(seed=0, duration=120.0)``.  Its jobs
#: start 45 s apart: re-recorded with ``CONTROL_LAG_DIGEST``.
LOOP_INTERVAL_DIGEST = (
    "08b72e79b0615343190b801fb900bd6176343e38898aa506b0ba1b0b790782a4"
)


def _field_text(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return f"{value.dtype.str}{value.shape}:{hashlib.sha256(data).hexdigest()}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_field_text(item) for item in value) + ")"
    if isinstance(value, Mapping):
        return "{" + ",".join(
            f"{key!r}:{_field_text(item)}" for key, item in value.items()
        ) + "}"
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


@pytest.mark.parametrize("protected", [False, True])
def test_harm_results_unchanged(protected):
    result = run_harm(protected, seed=0, duration=180.0)
    assert result.mds_failed is not protected
    assert result_digest([result]) == HARM_DIGESTS[protected]


@pytest.mark.parametrize("protected", [False, True])
def test_failover_results_unchanged(protected):
    result = run_failover(protected, seed=0, duration=1000.0)
    assert result.failovers == 1
    assert result_digest([result]) == FAILOVER_DIGESTS[protected]


@pytest.mark.parametrize("allocator", sorted(COST_AWARE_DIGESTS))
def test_cost_aware_results_unchanged(allocator):
    result = run_cost_aware(allocator, seed=0, duration=120.0)
    assert result_digest([result]) == COST_AWARE_DIGESTS[allocator]


def test_fig4_write_panel_unchanged():
    result = run_fig4_data("write", seed=0, duration=120.0)
    assert result_digest([result]) == FIG4_WRITE_DIGEST


def test_fig4_read_panel_unchanged():
    result = run_fig4_data("read", seed=0, duration=120.0)
    assert result_digest([result]) == FIG4_READ_DIGEST


def test_burst_size_sweep_unchanged():
    assert result_digest(sweep_burst_size(seed=0, duration=120.0)) == BURST_SIZE_DIGEST


def test_loop_interval_sweep_unchanged():
    swept = sweep_loop_interval(seed=0, duration=120.0)
    digest = hashlib.sha256(_field_text(swept).encode()).hexdigest()
    assert digest == LOOP_INTERVAL_DIGEST
