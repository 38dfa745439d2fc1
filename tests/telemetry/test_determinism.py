"""The telemetry subsystem's determinism contract, end to end.

Three guarantees pinned here:

1. **Observation does not perturb**: fixed-seed fig4/fig5 golden digests
   are bit-identical with telemetry fully enabled (tracing at any sample
   rate) and with metrics-only telemetry -- same values the uninstrumented
   suite in ``tests/experiments/test_bit_identity.py`` asserts.
2. **Exports are reproducible**: two identical traced runs produce
   byte-identical spans/events JSONL and metrics snapshots.
3. **Placement-independent**: a traced experiment run serially equals the
   same cell run through the multiprocessing sweep pool.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.fig4 import run_fig4_metadata
from repro.experiments.fig5 import run_fig5
from repro.runner import Cell, SweepRunner, results_equal
from repro.telemetry import Telemetry, TelemetryConfig, run_traced_fig4
from repro.telemetry.export import events_jsonl, prometheus_text, spans_jsonl

from tests.experiments.test_bit_identity import GOLDEN_DIGESTS


def _hash_array(digest, arr: np.ndarray) -> None:
    digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def fig4_digest(target: str, telemetry_factory) -> str:
    result = run_fig4_metadata(
        target,
        seed=0,
        duration=240.0,
        step_period=120.0,
        drain_tail=60.0,
        telemetry_factory=telemetry_factory,
    )
    digest = hashlib.sha256()
    digest.update(json.dumps(list(result.limits)).encode())
    for name in sorted(result.series):
        times, values = result.series[name]
        digest.update(name.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    return digest.hexdigest()


def fig5_digest(setup: str, telemetry) -> str:
    result = run_fig5(setup, seed=0, duration=600.0, telemetry=telemetry)
    digest = hashlib.sha256()
    for job_id in sorted(result.job_series):
        times, values = result.job_series[job_id]
        digest.update(job_id.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    for job_id, job in sorted(result.jobs.items()):
        digest.update(
            json.dumps(
                [
                    job_id,
                    job.start,
                    job.completed_at,
                    job.submitted_ops,
                    job.delivered_ops,
                ]
            ).encode()
        )
    digest.update(
        json.dumps([list(entry) for entry in result.enforcement_log]).encode()
    )
    return digest.hexdigest()


def _traced(seed: int = 0, rate: float = 0.25) -> Telemetry:
    return Telemetry(TelemetryConfig(seed=seed, sample_rate=rate, trace=True))


def _metrics_only() -> Telemetry:
    return Telemetry(TelemetryConfig(seed=0, sample_rate=0.0, trace=False))


class TestObservationDoesNotPerturb:
    def test_fig4_digest_with_tracing_enabled(self):
        # Telemetry with per-request tracing on every world, at a
        # non-trivial sample rate and a different telemetry seed: the
        # simulated arithmetic must not notice.
        assert (
            fig4_digest("open", lambda name: _traced(seed=7))
            == GOLDEN_DIGESTS["fig4:open"]
        )

    def test_fig4_digest_with_metrics_only(self):
        assert (
            fig4_digest("open", lambda name: _metrics_only())
            == GOLDEN_DIGESTS["fig4:open"]
        )

    def test_fig5_digest_with_tracing_enabled(self):
        assert (
            fig5_digest("proportional", _traced(seed=1, rate=1.0))
            == GOLDEN_DIGESTS["fig5:proportional"]
        )

    def test_fig5_digest_with_metrics_only(self):
        assert (
            fig5_digest("proportional", _metrics_only())
            == GOLDEN_DIGESTS["fig5:proportional"]
        )


class TestReproducibleExports:
    def test_identical_runs_identical_artifacts(self):
        runs = [
            run_traced_fig4(
                "open",
                seed=0,
                duration=60.0,
                step_period=30.0,
                drain_tail=15.0,
                sample_rate=0.1,
            )
            for _ in range(2)
        ]
        assert runs[0].spans_jsonl == runs[1].spans_jsonl
        assert runs[0].events_jsonl == runs[1].events_jsonl
        assert runs[0].metrics_text == runs[1].metrics_text
        assert runs[0].span_count == runs[1].span_count > 0
        assert runs[0].sampled_traces == runs[1].sampled_traces > 0

    def test_sampling_rate_changes_selection_not_results(self):
        sparse, dense = (
            run_traced_fig4(
                "open",
                seed=0,
                duration=60.0,
                step_period=30.0,
                drain_tail=15.0,
                sample_rate=rate,
            )
            for rate in (0.02, 0.5)
        )
        assert dense.sampled_traces > sparse.sampled_traces
        assert results_equal(sparse.result.series, dense.result.series)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: SHA-256 of (spans JSONL, events JSONL, Prometheus text) from the
#: fixed-seed runs below.  Reruns only prove the exports reproducible;
#: these prove a change to a hot loop did not change what it emits.
#: Recorded at the commit before the loops were collapsed (PR 13); the two
#: metrics-only Prometheus hashes were re-recorded once in that PR, when the
#: fused submit started feeding ``padll_stage_enforced_ops_total``.  Since
#: traced worlds submit on that same path (PR 17) their Prometheus text is
#: the metrics-only text, byte for byte.  The fig5 rows were re-recorded
#: when a stage's first collect window began to open at the stage's start
#: (fig5's jobs arrive after t = 0; fig4's single job starts at 0).
_NO_SPANS = _sha("")
PINNED_EXPORTS = {
    "fig4:trace": (
        "dd22ca734b4663fee9a8720a9299664ef3cdf2b46e62d857edac384c11120c29",
        "3bfc9c543d9487497134a723b9a4e6001808fbc0e545b68de6e3c24e67c05344",
        "1777edf4be39d4af0a592b77793ae0071ad8544ba4ded742071079c76b7ff123",
    ),
    "fig4:metrics": (
        _NO_SPANS,
        "3bfc9c543d9487497134a723b9a4e6001808fbc0e545b68de6e3c24e67c05344",
        "1777edf4be39d4af0a592b77793ae0071ad8544ba4ded742071079c76b7ff123",
    ),
    "fig5:trace": (
        "2e581aed56a292968f67999cb4f33eab63a9dd7e0661be9965d8c90783afcfb6",
        "744253faadcde5ce3b471483eac72ac2b6ff4c6a567b35f4d83625a4b059a23d",
        "bd105d4944110be36e3c4fd055a1b042787ebfc4b544f139beafc7c321b498fe",
    ),
    "fig5:metrics": (
        _NO_SPANS,
        "744253faadcde5ce3b471483eac72ac2b6ff4c6a567b35f4d83625a4b059a23d",
        "bd105d4944110be36e3c4fd055a1b042787ebfc4b544f139beafc7c321b498fe",
    ),
}


def _fig4_exports(trace: bool) -> tuple:
    run = run_traced_fig4(seed=0, trace=trace)
    return _sha(run.spans_jsonl), _sha(run.events_jsonl), _sha(run.metrics_text)


def _fig5_exports(trace: bool) -> tuple:
    telemetry = Telemetry(TelemetryConfig(seed=0, sample_rate=0.05, trace=trace))
    run_fig5("proportional", seed=0, duration=600.0, telemetry=telemetry)
    spans = telemetry.tracer.spans if telemetry.tracer is not None else []
    return (
        _sha(spans_jsonl(spans)),
        _sha(events_jsonl(telemetry.events.events)),
        _sha(prometheus_text(telemetry.registry)),
    )


class TestPinnedExports:
    @pytest.mark.parametrize("mode", ["trace", "metrics"])
    def test_fig4_export_bytes(self, mode):
        assert _fig4_exports(mode == "trace") == PINNED_EXPORTS[f"fig4:{mode}"]

    @pytest.mark.parametrize("mode", ["trace", "metrics"])
    def test_fig5_export_bytes(self, mode):
        assert _fig5_exports(mode == "trace") == PINNED_EXPORTS[f"fig5:{mode}"]


def _stage_op_totals(run) -> dict:
    return {
        (m["name"], m["labels"]["stage"]): m["value"]
        for m in run.metrics["metrics"]
        if m["name"]
        in ("padll_stage_enforced_ops_total", "padll_stage_passthrough_ops_total")
    }


class TestFusedSubmitCounts:
    def test_metrics_only_matches_tracing_stage_totals(self):
        # Tracing does not change the path requests take, so both modes
        # count the same ops with the same adds.
        traced = _stage_op_totals(run_traced_fig4(seed=0, trace=True))
        fused = _stage_op_totals(run_traced_fig4(seed=0, trace=False))
        assert traced[("padll_stage_enforced_ops_total", "job1-stage0")] > 0
        assert traced == fused


class TestSweepPlacement:
    def test_serial_equals_parallel_with_telemetry(self, tmp_path):
        cells = [
            Cell(
                "fig4-traced",
                {
                    "target": target,
                    "duration": 60.0,
                    "step_period": 30.0,
                    "drain_tail": 15.0,
                    "sample_rate": 0.1,
                },
            )
            for target in ("open", "getattr")
        ]
        serial = SweepRunner(jobs=1, cache_dir=tmp_path / "a").run(cells)
        parallel = SweepRunner(jobs=2, cache_dir=tmp_path / "b").run(cells)
        for s, p in zip(serial, parallel):
            assert s.result.spans_jsonl == p.result.spans_jsonl, s.cell.name
            assert s.result.events_jsonl == p.result.events_jsonl, s.cell.name
            assert s.result.metrics_text == p.result.metrics_text, s.cell.name
            assert results_equal(s.result.result, p.result.result), s.cell.name
