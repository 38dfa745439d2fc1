"""Tests for the monkey-patch interposition layer (real file I/O)."""

from __future__ import annotations

import builtins
import os

import pytest

from repro.errors import InterpositionError
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.interpose.monkeypatch import Interposer


@pytest.fixture
def stage(tmp_path):
    stage = LiveStage(
        StageIdentity("mp0", "jobM"), pfs_mounts=(str(tmp_path),)
    )
    stage.create_channel("metadata")  # unlimited: tests must not sleep
    stage.create_channel("data")
    stage.add_classifier_rule(
        ClassifierRule(
            "md",
            "metadata",
            op_classes=frozenset(
                {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
            ),
        )
    )
    stage.add_classifier_rule(
        ClassifierRule(
            "data", "data", op_classes=frozenset({OperationClass.DATA})
        )
    )
    return stage


class TestInstallRemove:
    def test_restores_originals(self, stage):
        orig_open = builtins.open
        orig_stat = os.stat
        with Interposer(stage):
            assert builtins.open is not orig_open
            assert os.stat is not orig_stat
        assert builtins.open is orig_open
        assert os.stat is orig_stat

    def test_nested_install_rejected(self, stage):
        with Interposer(stage):
            with pytest.raises(InterpositionError):
                Interposer(stage).install()

    def test_remove_without_install_rejected(self, stage):
        with pytest.raises(InterpositionError):
            Interposer(stage).remove()

    def test_exception_inside_context_still_restores(self, stage):
        orig_open = builtins.open
        with pytest.raises(ValueError):
            with Interposer(stage):
                raise ValueError("boom")
        assert builtins.open is orig_open


class TestInterception:
    def test_open_close_counted(self, stage, tmp_path):
        path = tmp_path / "f"
        with Interposer(stage) as ip:
            fh = open(path, "w")
            fh.write("hello")
            fh.close()
        # open + close hit the metadata channel; write hits data.
        assert stage.granted_total("metadata") == 2.0
        assert stage.granted_total("data") == 1.0
        assert ip.intercepted_calls >= 1
        assert path.read_text() == "hello"

    def test_os_calls_intercepted(self, stage, tmp_path):
        path = tmp_path / "f"
        path.write_text("x")
        with Interposer(stage):
            os.stat(path)
            os.rename(path, tmp_path / "g")
            os.unlink(tmp_path / "g")
            os.mkdir(tmp_path / "d")
            os.listdir(tmp_path)
            os.rmdir(tmp_path / "d")
        assert stage.granted_total("metadata") == 6.0

    def test_non_pfs_paths_pass_through(self, stage, tmp_path):
        other = tmp_path.parent / f"{tmp_path.name}-other"
        other.mkdir()
        try:
            with Interposer(stage):
                (other / "f").write_text("x")  # pathlib uses open under the hood
                os.stat(other / "f")
            assert stage.granted_total("metadata") == 0.0
            assert stage.passthrough_total > 0.0
        finally:
            (other / "f").unlink()
            other.rmdir()

    def test_file_iteration_and_context_manager(self, stage, tmp_path):
        path = tmp_path / "lines"
        path.write_text("a\nb\n")
        with Interposer(stage):
            with open(path) as fh:
                lines = list(fh)
        assert lines == ["a\n", "b\n"]

    def test_throttling_applies_to_real_io(self, tmp_path):
        """With a 50 ops/s bucket pre-drained, 10 metadata ops take ~0.2 s."""
        import time

        stage = LiveStage(StageIdentity("t0", "jobT"), pfs_mounts=(str(tmp_path),))
        stage.create_channel("metadata", rate=50.0)
        stage.add_classifier_rule(
            ClassifierRule(
                "md",
                "metadata",
                op_classes=frozenset({OperationClass.METADATA}),
            )
        )
        # Drain the initial burst so the measurement sees the steady rate.
        assert stage._channels["metadata"].bucket.try_acquire(50.0)
        start = time.monotonic()
        with Interposer(stage, wrap_file_io=False):
            for i in range(10):
                (tmp_path / f"f{i}").touch()  # touch = open+close... via open
        elapsed = time.monotonic() - start
        granted = stage.granted_total("metadata")
        assert granted >= 10.0
        assert elapsed >= (granted - 1) / 50.0 * 0.8


class TestFdBasedCalls:
    def test_os_open_close_tracks_fd_path(self, stage, tmp_path):
        path = tmp_path / "fdfile"
        with Interposer(stage) as ip:
            fd = os.open(path, os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"data")
            os.fstat(fd)
            os.close(fd)
            assert fd not in ip._fd_paths
        # open + fstat + close = 3 metadata; write = 1 data.
        assert stage.granted_total("metadata") == 3.0
        assert stage.granted_total("data") == 1.0

    def test_fd_calls_on_non_pfs_paths_pass_through(self, stage, tmp_path):
        other = tmp_path.parent / f"{tmp_path.name}-fd-other"
        other.mkdir()
        try:
            with Interposer(stage):
                fd = os.open(other / "f", os.O_CREAT | os.O_WRONLY)
                os.fstat(fd)
                os.close(fd)
            assert stage.granted_total("metadata") == 0.0
            assert stage.passthrough_total >= 3.0
        finally:
            (other / "f").unlink()
            other.rmdir()

    def test_unknown_fd_treated_conservatively(self, stage, tmp_path):
        """An fd opened before interposition has no recorded path; with
        empty path the classifier treats it as PFS-bound (conservative)."""
        pre_fd = os.open(tmp_path / "pre", os.O_CREAT | os.O_WRONLY)
        try:
            with Interposer(stage):
                os.fstat(pre_fd)
            assert stage.granted_total("metadata") == 1.0
        finally:
            os.close(pre_fd)

    def test_fd_table_restored_after_exit(self, stage, tmp_path):
        ip = Interposer(stage)
        with ip:
            fd = os.open(tmp_path / "g", os.O_CREAT | os.O_WRONLY)
            os.close(fd)
        assert ip._fd_paths == {}
        # os.open restored to the original.
        assert not hasattr(os.open, "__wrapped__")


@pytest.fixture
def mounted(tmp_path):
    """A PFS mount and a local directory side by side, by the real paths
    ``os.getcwd()`` reports, and a stage enforcing metadata on the mount."""
    root = os.path.realpath(tmp_path)
    pfs, local = os.path.join(root, "pfs"), os.path.join(root, "local")
    os.mkdir(pfs)
    os.mkdir(local)
    stage = LiveStage(StageIdentity("mp1", "jobM"), pfs_mounts=(pfs,))
    stage.create_channel("metadata")
    stage.add_classifier_rule(
        ClassifierRule(
            "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
        )
    )
    return stage, pfs, local


class TestPathResolution:
    def test_relative_paths_inside_a_mount_are_enforced(self, mounted, monkeypatch):
        stage, pfs, _ = mounted
        monkeypatch.chdir(pfs)
        with Interposer(stage, wrap_file_io=False):
            fd = os.open("rel", os.O_CREAT | os.O_WRONLY)
            os.stat("rel")
            os.stat("./rel")
            os.close(fd)
        assert stage.granted_total("metadata") == 4.0
        assert stage.passthrough_total == 0.0

    def test_relative_paths_outside_every_mount_pass_through(self, mounted, monkeypatch):
        stage, pfs, local = mounted
        monkeypatch.chdir(local)
        with Interposer(stage, wrap_file_io=False):
            os.close(os.open("rel", os.O_CREAT | os.O_WRONLY))
            os.stat("rel")
            # Lexically back out of the local directory and into the mount.
            os.stat(os.path.join("..", "pfs"))
        assert stage.passthrough_total == 3.0
        assert stage.granted_total("metadata") == 1.0

    def test_relative_builtin_open_is_enforced(self, mounted, monkeypatch):
        stage, pfs, _ = mounted
        monkeypatch.chdir(pfs)
        with Interposer(stage):
            open("rel", "w").close()
        assert stage.granted_total("metadata") == 2.0  # open + close

    def test_bytes_and_pathlike_paths_classify_like_str(self, mounted):
        import pathlib

        stage, pfs, local = mounted
        with Interposer(stage, wrap_file_io=False):
            os.stat(os.fsencode(pfs))
            os.stat(pathlib.Path(pfs))
            os.stat(os.fsencode(local))
        assert stage.granted_total("metadata") == 2.0
        assert stage.passthrough_total == 1.0

    def test_symlink_is_classified_by_the_link_not_its_target(self, mounted):
        stage, pfs, local = mounted
        with Interposer(stage, wrap_file_io=False):
            # Link made on the PFS, pointing at local text: PFS metadata work.
            os.symlink(os.path.join(local, "target"), os.path.join(pfs, "ln"))
            assert stage.granted_total("metadata") == 1.0
            # Link made locally, pointing into the PFS: no PFS work at all.
            os.symlink(os.path.join(pfs, "target"), os.path.join(local, "ln"))
        assert stage.granted_total("metadata") == 1.0
        assert stage.passthrough_total == 1.0

    def test_keyword_paths_are_classified(self, mounted):
        stage, pfs, local = mounted
        with Interposer(stage, wrap_file_io=False):
            os.mkdir(path=os.path.join(local, "d"))
            os.stat(path=os.path.join(local, "d"))
            os.symlink(src="anything", dst=os.path.join(local, "ln2"))
            os.rename(src=os.path.join(local, "d"), dst=os.path.join(local, "e"))
            assert stage.granted_total("metadata") == 0.0
            os.stat(path=pfs)
            os.close(fd=os.open(path=os.path.join(pfs, "k"), flags=os.O_CREAT | os.O_WRONLY))
        # mkdir is directory management, which this stage has no rule for.
        assert stage.passthrough_total == 4.0
        assert stage.granted_total("metadata") == 3.0

    def test_unknown_path_after_a_relative_name_is_not_passed_through(self, mounted, monkeypatch):
        # Both once shared the decision-cache key of "".
        stage, _, local = mounted
        monkeypatch.chdir(local)
        pre_fd = os.open(os.path.join(local, "pre"), os.O_CREAT | os.O_WRONLY)
        try:
            with Interposer(stage, wrap_file_io=False):
                os.stat("pre")
                os.stat(pre_fd)  # unknown path: conservatively PFS-bound
        finally:
            os.close(pre_fd)
        assert stage.passthrough_total == 1.0
        assert stage.granted_total("metadata") == 1.0
