"""The interposed call's layers, as executed counts (wall time cannot
resolve a frame or a lock on a shared machine; a count repeats exactly).

One intercepted ``os.stat`` on a warm decision cache, an unlimited
channel and no telemetry runs: the wrapper, ``LiveStage.admit``,
``Classifier.decide``, ``_LiveChannel.admit`` -- four Python frames, no
:class:`Request`, one lock -- and then the real call.  A layer that
grows back fails here before any benchmark sees it.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core import differentiation, requests
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass
from repro.core.stage import StageIdentity
from repro.interpose import Interposer, LiveStage
from repro.interpose.live_stage import _LiveChannel


class CountingLock:
    def __init__(self, inner) -> None:
        self.inner = inner
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


@pytest.fixture
def world(tmp_path):
    pfs, local = tmp_path / "pfs", tmp_path / "local"
    pfs.mkdir()
    local.mkdir()
    stage = LiveStage(StageIdentity("hp0", "jobH"), pfs_mounts=(str(pfs),))
    stage.create_channel("metadata")  # unlimited
    stage.add_classifier_rule(
        ClassifierRule(
            "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
        )
    )
    on_mount, off_mount = str(pfs / "f"), str(local / "f")
    for path in (on_mount, off_mount):
        open(path, "w").close()
    with Interposer(stage, wrap_file_io=False) as interposer:
        os.stat(on_mount)  # warm the decision cache
        os.stat(off_mount)
        yield stage, interposer, on_mount, off_mount


def python_frames_before_real_call(real, path):
    """Code objects of the Python frames ``os.stat(path)`` enters until the
    C function ``real`` (identity, not ``co_qualname``, which is 3.11+)."""
    frames = []
    state = {"counting": True}

    def profiler(frame, event, arg):
        if event == "c_call" and arg is real:
            state["counting"] = False
        elif event == "call" and state["counting"]:
            frames.append(frame.f_code)

    sys.setprofile(profiler)
    try:
        os.stat(path)
    finally:
        sys.setprofile(None)
    assert not state["counting"], "the real call was never reached"
    return frames


def test_enforced_stat_enters_at_most_four_frames(world):
    _, interposer, on_mount, _ = world
    frames = python_frames_before_real_call(interposer._saved_os["stat"], on_mount)
    assert 1 <= len(frames) <= 4, frames  # the wrapper included
    assert frames[-1] is _LiveChannel.admit.__code__


def test_bypassed_stat_enters_at_most_three_frames(world):
    _, interposer, _, off_mount = world
    frames = python_frames_before_real_call(interposer._saved_os["stat"], off_mount)
    assert 1 <= len(frames) <= 3, frames


def test_cache_hit_builds_no_request(world, monkeypatch):
    _, _, on_mount, off_mount = world
    built = []
    real_init = requests.Request.__init__
    real_batch = requests.batch_request

    def counting_init(self, *args, **kwargs):
        built.append("Request")
        real_init(self, *args, **kwargs)

    def counting_batch(*args, **kwargs):
        built.append("batch_request")
        return real_batch(*args, **kwargs)

    monkeypatch.setattr(requests.Request, "__init__", counting_init)
    monkeypatch.setattr(requests, "batch_request", counting_batch)
    monkeypatch.setattr(differentiation, "batch_request", counting_batch)
    for _ in range(3):
        os.stat(on_mount)
        os.stat(off_mount)
    assert built == []
    # The counters do see a record when one is built: a miss builds one.
    os.stat(os.path.dirname(os.path.dirname(on_mount)))
    assert built == ["batch_request"]


def test_one_lock_per_call(world):
    stage, _, on_mount, off_mount = world
    channel = stage._channels["metadata"]
    assert channel.lock is channel.bucket.lock  # one lock per channel
    channel_lock = CountingLock(channel.lock)
    stage_lock = CountingLock(stage._lock)
    channel.lock = channel.bucket.lock = channel_lock
    stage._lock = stage_lock
    os.stat(on_mount)
    assert (channel_lock.acquired, stage_lock.acquired) == (1, 0)
    os.stat(off_mount)
    assert (channel_lock.acquired, stage_lock.acquired) == (1, 1)
    assert stage.granted_total("metadata") == 2.0  # the warm-up call and this one
    assert stage.passthrough_total == 2.0
