"""Tests for the OpTrace model and its persistence round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.workloads.trace import OpTrace


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(TraceFormatError):
            OpTrace(("a",), np.zeros(3))  # 1-D
        with pytest.raises(TraceFormatError):
            OpTrace(("a", "b"), np.zeros((3, 1)))  # column mismatch

    def test_duplicate_kinds(self):
        with pytest.raises(TraceFormatError):
            OpTrace(("a", "a"), np.zeros((1, 2)))

    def test_negative_counts(self):
        with pytest.raises(TraceFormatError):
            OpTrace(("a",), np.array([[-1.0]]))

    def test_nonfinite_counts(self):
        with pytest.raises(TraceFormatError):
            OpTrace(("a",), np.array([[np.nan]]))

    def test_invalid_period(self):
        with pytest.raises(TraceFormatError):
            OpTrace(("a",), np.zeros((1, 1)), sample_period=0.0)


class TestStatistics:
    def test_rates_and_totals(self, small_trace):
        # Sample 0: 600+1200+3000+600 = 5400 ops over 60 s = 90 ops/s.
        assert small_trace.rates()[0] == pytest.approx(90.0)
        assert small_trace.rates("getattr")[0] == pytest.approx(50.0)
        assert small_trace.total("open") == pytest.approx(
            600 + 1200 + 600 + 2400 + 600 + 60 + 600 + 1200 + 600 + 60
        )
        assert small_trace.duration == 600.0

    def test_mean_and_peak(self, small_trace):
        assert small_trace.mean_rate() == pytest.approx(
            small_trace.total() / 600.0
        )
        assert small_trace.peak_rate() == pytest.approx(
            small_trace.counts.sum(axis=1).max() / 60.0
        )

    def test_shares_sum_to_one(self, small_trace):
        assert sum(small_trace.shares().values()) == pytest.approx(1.0)

    def test_unknown_kind(self, small_trace):
        with pytest.raises(TraceFormatError):
            small_trace.rates("frobnicate")

    def test_times(self, small_trace):
        times = small_trace.times()
        assert times[0] == 0.0
        assert times[-1] == 540.0


class TestTransforms:

    def test_select(self, small_trace):
        sub = small_trace.select(["open", "rename"])
        assert sub.kinds == ("open", "rename")
        assert sub.total() == small_trace.total("open") + small_trace.total("rename")

    def test_scale(self, small_trace):
        half = small_trace.scale(0.5)
        assert half.total() == pytest.approx(small_trace.total() / 2)
        with pytest.raises(TraceFormatError):
            small_trace.scale(-1.0)


class TestPersistence:
    def test_csv_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        small_trace.save_csv(path)
        loaded = OpTrace.load_csv(path)
        assert loaded == small_trace

    def test_jsonl_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        small_trace.save_jsonl(path)
        loaded = OpTrace.load_jsonl(path)
        assert loaded == small_trace

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("notime,open\n0,5\n")
        with pytest.raises(TraceFormatError, match="time"):
            OpTrace.load_csv(path)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,open\n0,5\n60\n")
        with pytest.raises(TraceFormatError, match="expected"):
            OpTrace.load_csv(path)

    def test_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            OpTrace.load_csv(path)

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError):
            OpTrace.load_jsonl(path)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=3),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_preserves_statistics(data, tmp_path_factory):
    trace = OpTrace(("a", "b", "c"), np.array(data))
    tmp = tmp_path_factory.mktemp("traces")
    trace.save_csv(tmp / "t.csv")
    trace.save_jsonl(tmp / "t.jsonl")
    for loaded in (OpTrace.load_csv(tmp / "t.csv"), OpTrace.load_jsonl(tmp / "t.jsonl")):
        assert loaded.total() == pytest.approx(trace.total(), rel=1e-4, abs=1e-4)
        assert loaded.n_samples == trace.n_samples
