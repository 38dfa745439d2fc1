"""``live_interpose``: what interposition costs a real application call.

One thread creates, closes, stats, renames and unlinks real files
(``os.open / close / stat / rename / unlink``, 4 000 calls per batch) in a
directory inside the checkout, in interleaved batches:

(a) no interposer installed;
(b) ``Interposer(LiveStage, wrap_file_io=False)`` installed, the directory
    under ``pfs_mounts``, its channel unlimited -- the paper's
    "passthrough" setup and its <= 0.9 % claim;
(c) interposer installed, a directory *outside* ``pfs_mounts`` -- what
    every non-PFS call of an application pays;
(a) again, so (b) and (c) sit between two baselines.

The overhead of a batch is its time minus the mean of the two baselines
around it.  Closed loop, one client.  After the timed repeats the channel
is set to a finite rate once, to check the rate is enforced (phase d).

Two things are being timed here and the machine disturbs them differently:
the system calls (kernel and file system, 2 us a call) and the
interposer's Python (3 us).  The calibration kernel follows the second,
not the first.  So the overhead -- all Python -- is scaled by the kernel as
everywhere else, and the system calls are charged their nominal
``BASELINE_US``: ``interposed_ops_per_s`` is calls per second through the
interposer on a machine whose bare calls cost exactly that.  The measured
baseline is reported beside it (``baseline_us_per_op``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from padllbench import isolated, stats
from padllbench.calibrate import Meter
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Check, Repeat, Traced, Workload

CALLS_PER_FILE = 5
#: What one un-interposed call costs at reference speed (measured median
#: over 40 runs: 1.98-2.18 us).
BASELINE_US = 2.0
#: Phase (d): the finite rate, and how long the churn runs against it.
CHECK_RATE = 5_000.0


def churn(names: Sequence[Tuple[str, str]]) -> None:
    """Five metadata calls per file, resolved through ``os`` at call time
    so an installed interposer sees them."""
    for path, renamed in names:
        os.close(os.open(path, os.O_CREAT | os.O_WRONLY, 0o600))
        os.stat(path)
        os.rename(path, renamed)
        os.unlink(renamed)


def rate_check(granted: float, rate: float, elapsed: float) -> Check:
    """Granted ops within [0.95, 1.0] x rate x (elapsed + the 1 s burst)."""
    allowance = rate * (elapsed + 1.0)
    ok = 0.95 * allowance <= granted <= allowance * (1.0 + 1e-9)
    return Check(
        "finite rate enforced within [0.95, 1.0] of the allowance",
        1,
        0 if ok else 1,
        "" if ok else f"granted {granted} of allowance {allowance} over {elapsed:.3f} s",
    )


class LiveInterpose(Workload):
    name = "live_interpose"
    imports = (
        "repro.interpose",
    )
    pin = True
    work_per_s_is = "interposed_ops_per_s"
    unit_cost_us_is = "interpose_overhead_us_per_op"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.files = 100 if smoke else 800
        self.quads = 3 if smoke else 30
        self.check_seconds = 0.2 if smoke else 1.0
        self.calls = self.files * CALLS_PER_FILE
        self.root = ""
        self.issued = 0

    def setup(self) -> None:
        from repro.core.differentiation import ClassifierRule
        from repro.core.requests import OperationClass
        from repro.core.stage import StageIdentity
        from repro.interpose import Interposer, LiveStage

        os.makedirs(self.scratch, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="interpose-", dir=self.scratch)
        self.pfs_dir = os.path.join(self.root, "pfs")
        self.local_dir = os.path.join(self.root, "local")
        os.mkdir(self.pfs_dir)
        os.mkdir(self.local_dir)
        # File names come from the seed; the program sees only the calls.
        stem = f"s{self.seed}"
        self.pfs_names = self._names(self.pfs_dir, stem)
        self.local_names = self._names(self.local_dir, stem)
        self.stage = LiveStage(
            StageIdentity("bench-stage", "bench-job"), pfs_mounts=(self.pfs_dir,)
        )
        self.stage.create_channel("metadata")  # unlimited
        self.stage.add_classifier_rule(
            ClassifierRule(
                "md",
                "metadata",
                op_classes=frozenset(
                    {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
                ),
            )
        )
        self.interposer = Interposer(self.stage, wrap_file_io=False)
        self.issued = 0

    def _names(self, directory: str, stem: str) -> List[Tuple[str, str]]:
        return [
            (os.path.join(directory, f"{stem}-f{i}"), os.path.join(directory, f"{stem}-f{i}.r"))
            for i in range(self.files)
        ]

    def teardown(self) -> None:
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = ""

    @staticmethod
    def _timed(names: Sequence[Tuple[str, str]]) -> float:
        start = time.perf_counter()
        churn(names)
        return time.perf_counter() - start

    def _quad(self) -> Tuple[float, float, float]:
        """(baseline, interposed, bypassed) wall seconds of one batch each."""
        first = self._timed(self.pfs_names)
        self.interposer.install()
        try:
            interposed = self._timed(self.pfs_names)
            bypassed = self._timed(self.local_names)
        finally:
            self.interposer.remove()
        self.issued += 2 * self.calls
        second = self._timed(self.pfs_names)
        return (first + second) / 2.0, interposed, bypassed

    def warmup(self, meter: Meter) -> None:
        self._quad()

    def repeat(self, meter: Meter) -> Repeat:
        calibrator = meter.calibrator
        calls = self.calls
        raw = norm = 0.0
        overheads: List[float] = []
        bypasses: List[float] = []
        baselines: List[float] = []
        interposed_us: List[float] = []
        measured_us: List[float] = []
        before = calibrator.recent()
        for _ in range(self.quads):
            baseline, interposed, bypassed = self._quad()
            after = calibrator.sample()
            factor = calibrator.factor(before, after)
            to_us = factor * 1e6 / calls
            before = after
            raw += interposed
            norm += interposed * factor
            overheads.append((interposed - baseline) * to_us)
            bypasses.append((bypassed - baseline) * to_us)
            baselines.append(baseline * to_us)
            interposed_us.append(BASELINE_US + overheads[-1])
            measured_us.append(interposed * to_us)
        work = float(calls * self.quads)
        return Repeat(
            work=work,
            raw_s=raw,
            norm_s=norm,
            unit_costs_us=overheads,
            rates=[1e6 / us for us in interposed_us],
            named={
                "interposed_ops_per_s": stats.median([1e6 / us for us in interposed_us]),
                "interpose_overhead_us_per_op": stats.median(overheads),
                "bypass_overhead_us_per_op": stats.median(bypasses),
                "baseline_us_per_op": stats.median(baselines),
            },
            outputs={"interposed_us": measured_us},
        )

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        # Phase (d): a finite rate, full bucket, churn against it.
        granted_before = self.stage.granted_total("metadata")
        self.stage.set_channel_rate("metadata", CHECK_RATE)
        start = time.perf_counter()
        self.interposer.install()
        try:
            names = self.pfs_names[: max(1, self.files // 8)]
            while time.perf_counter() - start < self.check_seconds:
                churn(names)
                self.issued += len(names) * CALLS_PER_FILE
        finally:
            self.interposer.remove()
        elapsed = time.perf_counter() - start
        granted = self.stage.granted_total("metadata") - granted_before
        intercepted = self.interposer.intercepted_calls
        return [
            rate_check(granted, CHECK_RATE, elapsed),
            Check(
                "intercepted_calls equals the calls issued",
                self.issued,
                abs(intercepted - self.issued),
                "" if intercepted == self.issued else f"{intercepted} != {self.issued}",
            ),
        ]

    def named_units(self) -> Dict[str, str]:
        return {
            "interposed_ops_per_s": "ops/s",
            "interpose_overhead_us_per_op": "us",
            "bypass_overhead_us_per_op": "us",
            "baseline_us_per_op": "us",
        }

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        from repro.core import differentiation
        from repro.interpose import live_bucket, live_stage

        tracer.wrap(live_stage.LiveStage, "throttle", "interpose.live_stage.throttle")
        tracer.wrap(live_bucket.LiveTokenBucket, "acquire", "interpose.live_bucket.acquire")
        tracer.wrap(differentiation.Classifier, "classify", "core.differentiation.classify")

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        batch_us = [us for r in traced.reference for us in r.outputs["interposed_us"]]
        return {
            "core.differentiation.classify_calls": traced.calls("core.differentiation.classify"),
            "core.differentiation.classify_s": traced.total_s("core.differentiation.classify"),
            "interpose.monkeypatch.intercepted_calls": traced.calls(
                "interpose.live_stage.throttle"
            ),
            "interpose.bypass_overhead_us_per_op": stats.median(
                [r.named["bypass_overhead_us_per_op"] for r in traced.reference]
            ),
            "interpose.batch_us_per_op_p99": stats.tail(batch_us),
            # What is left of (b) - (a) once the stage's own share is taken out.
            "interpose.monkeypatch.wrapper_us": stats.median(
                [r.named["interpose_overhead_us_per_op"] for r in traced.reference]
            )
            - traced.isolated["interpose.live_stage.throttle_us"],
        }

    def isolated(self, meter: Meter) -> Dict[str, float]:
        from repro.core.requests import OperationType, Request
        from repro.interpose import LiveTokenBucket

        calls = 2_000 if self.smoke else 40_000
        stage = self.stage
        stage.set_channel_rate("metadata", float("inf"))
        on_mount = Request(OperationType.STAT, path=self.pfs_names[0][0], job_id="bench-job")
        off_mount = Request(OperationType.STAT, path=self.local_names[0][0], job_id="bench-job")
        throttle_us = isolated.per_call_us(meter, lambda: stage.throttle(on_mount), calls)
        bypass_us = isolated.per_call_us(meter, lambda: stage.throttle(off_mount), calls)
        bucket = LiveTokenBucket(float("inf"))
        requests = [
            Request(op, path=path, job_id="bench-job")
            for op in (OperationType.OPEN, OperationType.STAT, OperationType.RENAME,
                       OperationType.UNLINK, OperationType.CLOSE)
            for path in (self.pfs_names[0][0], self.local_names[0][0], "")
        ]
        return {
            "interpose.live_stage.throttle_us": throttle_us,
            "interpose.live_stage.bypass_us": bypass_us,
            "interpose.live_stage.collect_us": isolated.per_call_us(
                meter, stage.collect, calls // 4
            ),
            "interpose.live_stage.set_rate_us": isolated.per_call_us(
                meter, lambda: stage.set_channel_rate("metadata", 1e9), calls // 4
            ),
            "interpose.live_bucket.acquire_us": isolated.per_call_us(
                meter, bucket.acquire, calls
            ),
            "core.differentiation.decisions_per_s": isolated.classifier_decisions_per_s(
                meter, stage.classifier, requests, calls * 5
            ),
        }


WORKLOAD = LiveInterpose
