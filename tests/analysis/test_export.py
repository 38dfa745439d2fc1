"""Tests for CSV series export."""

from __future__ import annotations

import csv
import math

import numpy as np

from repro.analysis.export import export_wide


def make_series():
    t = np.array([0.0, 1.0, 2.0])
    return {
        "baseline": (t, np.array([10.0, 20.0, 30.0])),
        "padll/run1": (t, np.array([5.0, 5.0, 5.0])),
    }


class TestExportWide:
    def test_aligned_columns(self, tmp_path):
        path = export_wide(make_series(), tmp_path / "all.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "baseline", "padll/run1"]
        assert [float(v) for v in rows[1]] == [0.0, 10.0, 5.0]

    def test_union_with_fill(self, tmp_path):
        series = {
            "a": (np.array([0.0, 2.0]), np.array([1.0, 2.0])),
            "b": (np.array([1.0]), np.array([9.0])),
        }
        path = export_wide(series, tmp_path / "w.csv", fill=-1.0)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + times {0, 1, 2}
        # At t=1 series "a" has no sample -> fill.
        t1 = rows[2]
        assert float(t1[0]) == 1.0
        assert float(t1[1]) == -1.0
        assert float(t1[2]) == 9.0

    def test_creates_parent_dirs(self, tmp_path):
        path = export_wide(make_series(), tmp_path / "deep/dir/all.csv")
        assert path.exists()
