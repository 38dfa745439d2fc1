"""Tests for the POSIX request model."""

from __future__ import annotations

import pytest

from repro.core.requests import (
    MDS_OP_KINDS,
    POSIX_SURFACE,
    OperationClass,
    OperationType,
    Request,
    mds_kind,
    op_class,
)


class TestSurface:
    def test_surface_has_42_calls(self):
        """The paper's data plane reimplements exactly 42 POSIX calls."""
        assert len(POSIX_SURFACE) == 42
        assert len(OperationType) == 42

    def test_every_call_classified(self):
        for op in OperationType:
            assert op in POSIX_SURFACE
            cls, kind = POSIX_SURFACE[op]
            assert isinstance(cls, OperationClass)
            assert kind is None or kind in MDS_OP_KINDS

    def test_all_four_classes_present(self):
        classes = {op_class(op) for op in OperationType}
        assert classes == set(OperationClass)

    def test_class_sizes(self):
        by_class = {}
        for op in OperationType:
            by_class.setdefault(op_class(op), []).append(op)
        assert len(by_class[OperationClass.DATA]) == 8
        assert len(by_class[OperationClass.METADATA]) == 14
        assert len(by_class[OperationClass.DIRECTORY_MANAGEMENT]) == 8
        assert len(by_class[OperationClass.EXTENDED_ATTRIBUTES]) == 12

    def test_paper_monitored_kinds_present(self):
        """Section II-A monitors these 11 kinds via LustrePerfMon."""
        monitored = {
            "open", "close", "getattr", "setattr", "rename", "mkdir",
            "mknod", "rmdir", "statfs", "sync", "unlink",
        }
        assert monitored <= set(MDS_OP_KINDS)

    @pytest.mark.parametrize(
        "op,expected_kind",
        [
            (OperationType.OPEN, "open"),
            (OperationType.CREAT, "open"),
            (OperationType.CLOSE, "close"),
            (OperationType.STAT, "getattr"),
            (OperationType.FSTAT, "getattr"),
            (OperationType.RENAME, "rename"),
            (OperationType.CHMOD, "setattr"),
            (OperationType.GETXATTR, "getattr"),
            (OperationType.SETXATTR, "setattr"),
            (OperationType.READ, "read"),
            (OperationType.LSEEK, None),
        ],
    )
    def test_kind_mapping(self, op, expected_kind):
        assert mds_kind(op) == expected_kind


class TestRequest:
    def test_defaults(self):
        req = Request(OperationType.OPEN, path="/pfs/f")
        assert req.count == 1.0
        assert req.op_class is OperationClass.METADATA
        assert req.mds_kind == "open"

    @pytest.mark.parametrize("count", [0.0, -1.0])
    def test_invalid_count(self, count):
        with pytest.raises(ValueError):
            Request(OperationType.OPEN, count=count)

    def test_split_preserves_total_and_attrs(self):
        req = Request(
            OperationType.STAT, path="/pfs/x", job_id="j", count=10.0,
        )
        head, tail = req.split(3.5)
        assert head.count + tail.count == pytest.approx(10.0)
        assert head.count == pytest.approx(3.5)
        for part in (head, tail):
            assert part.op is OperationType.STAT
            assert part.path == "/pfs/x"
            assert part.job_id == "j"

    @pytest.mark.parametrize("at", [0.0, 10.0, 11.0, -1.0])
    def test_split_bounds(self, at):
        req = Request(OperationType.STAT, count=10.0)
        with pytest.raises(ValueError):
            req.split(at)
