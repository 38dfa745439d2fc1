"""EXP-OV -- the paper's overhead claim (section IV-A).

"When comparing passthrough with baseline, the overhead is negligible,
never degrading performance more than 0.9% across all experiments."

Two measurements:

* **simulated**: for every Fig. 4 workload, compare delivered operation
  totals and completion under baseline vs. passthrough (interception with
  unlimited channels).  The data-plane mechanics add no throttling delay,
  so any difference beyond numerical noise is a harness bug -- this is
  the analogue of the paper's passthrough lines overlapping baseline.
* **live**: wall-clock microbenchmark of the monkey-patch layer over real
  file metadata operations on a tmpfs directory, reporting relative
  overhead of interception without throttling.  Absolute numbers differ
  from the paper's C++ shim (Python wrappers cost more than PLT hooks),
  which EXPERIMENTS.md discusses.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.core.requests import OperationClass
from repro.core.differentiation import ClassifierRule
from repro.core.stage import StageIdentity
from repro.experiments.fig4 import run_fig4_metadata
from repro.interpose.live_stage import LiveStage
from repro.interpose.monkeypatch import Interposer

__all__ = [
    "SimOverheadResult",
    "LiveOverheadResult",
    "run_sim_overhead",
    "run_live_overhead",
    "main",
]


@dataclass(frozen=True, slots=True)
class SimOverheadResult:
    """Baseline-vs-passthrough deltas per Fig. 4 workload."""

    #: target -> relative difference in delivered operations (|pt-base|/base).
    delivered_delta: Mapping[str, float]

    @property
    def worst_delta(self) -> float:
        return max(self.delivered_delta.values())


def run_sim_overhead(
    targets: tuple[str, ...] = ("open", "close", "getattr", "metadata"),
    seed: int = 0,
    duration: float = 600.0,
) -> SimOverheadResult:
    """Passthrough-vs-baseline delivered-ops delta on Fig. 4 workloads."""
    deltas: Dict[str, float] = {}
    for target in targets:
        result = run_fig4_metadata(target, seed=seed, duration=duration)
        base_t, base_r = result.series["baseline"]
        pass_t, pass_r = result.series["passthrough"]
        # Both series come from the same fixed-duration run, so the two
        # reductions see identical shapes and the delta is order-stable.
        base_total = float(np.sum(base_r))  # padll: allow(FLT001)
        pass_total = float(np.sum(pass_r))  # padll: allow(FLT001)
        deltas[target] = (
            abs(pass_total - base_total) / base_total if base_total else 0.0
        )
    return SimOverheadResult(delivered_delta=deltas)


@dataclass(frozen=True, slots=True)
class LiveOverheadResult:
    """Wall-clock interception overhead of the monkey-patch layer."""

    n_ops: int
    baseline_seconds: float
    passthrough_seconds: float

    @property
    def relative_overhead(self) -> float:
        if self.baseline_seconds == 0:
            return 0.0
        return (self.passthrough_seconds - self.baseline_seconds) / self.baseline_seconds

    @property
    def per_op_overhead_us(self) -> float:
        return (
            (self.passthrough_seconds - self.baseline_seconds) / self.n_ops * 1e6
        )


def _metadata_churn(root: str, n_ops: int) -> None:
    """A metadata-heavy loop: create, stat, rename, unlink."""
    for i in range(n_ops // 4):
        path = os.path.join(root, f"f{i}")
        with open(path, "w") as fh:
            fh.write("x")
        os.stat(path)
        os.rename(path, path + ".r")
        os.unlink(path + ".r")


def run_live_overhead(n_ops: int = 2000, repeats: int = 3) -> LiveOverheadResult:
    """Measure interception-without-throttling cost on real file I/O."""
    root = tempfile.mkdtemp(prefix="padll-overhead-")
    try:
        baseline = min(
            _timed(_metadata_churn, root, n_ops) for _ in range(repeats)
        )
        stage = LiveStage(
            StageIdentity("overhead-stage", "overhead"), pfs_mounts=(root,)
        )
        stage.create_channel("metadata")  # unlimited = passthrough
        stage.add_classifier_rule(
            ClassifierRule(
                "md",
                "metadata",
                op_classes=frozenset(
                    {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
                ),
            )
        )
        samples = []
        for _ in range(repeats):
            with Interposer(stage, wrap_file_io=False):
                samples.append(_timed(_metadata_churn, root, n_ops))
        passthrough = min(samples)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return LiveOverheadResult(
        n_ops=n_ops, baseline_seconds=baseline, passthrough_seconds=passthrough
    )


def _timed(fn, root: str, n_ops: int) -> float:
    # Intentionally wall-clock: this measures *live* interception overhead
    # on real file I/O; the value is printed, never cached or digested.
    sub = tempfile.mkdtemp(dir=root)
    start = time.perf_counter()  # padll: allow(DET001)
    fn(sub, n_ops)
    return time.perf_counter() - start  # padll: allow(DET001)


def main(seed: int = 0) -> None:
    sim = run_sim_overhead(seed=seed)
    print("simulated passthrough-vs-baseline delivered-ops delta:")
    for target, delta in sim.delivered_delta.items():
        print(f"  {target:<10} {delta * 100:.3f}%  (paper bound: 0.9%)")
    live = run_live_overhead()
    print(
        f"live interception: {live.n_ops} metadata ops, "
        f"baseline {live.baseline_seconds * 1e3:.1f} ms, "
        f"passthrough {live.passthrough_seconds * 1e3:.1f} ms, "
        f"overhead {live.relative_overhead * 100:.1f}% "
        f"({live.per_op_overhead_us:.1f} us/op)"
    )


if __name__ == "__main__":
    main()
