#!/usr/bin/env python3
"""Throttle *real* file I/O by monkey-patching the interpreter (LD_PRELOAD
analogue).

Installs the PADLL interposition layer over ``builtins.open`` and the
``os`` module, so every metadata operation this process performs under a
"PFS" directory is classified and rate limited before reaching the
kernel -- while I/O to any other path passes through untouched.  A live
control-plane thread doubles the allowed rate halfway through, and the
measured throughput follows.

Run:  python examples/live_interposition.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core import (
    ClassifierRule,
    ControlPlane,
    ControlPlaneConfig,
    OperationClass,
    StageIdentity,
)
from repro.core.policies import PolicyRule, RuleScope, SteppedRate
from repro.interpose import Interposer, LiveControlLoop, LiveStage


def churn(root: str, n_files: int, offset: int = 0) -> None:
    """A metadata-heavy loop: create, stat, rename, delete."""
    for i in range(n_files):
        path = os.path.join(root, f"file-{offset + i}")
        with open(path, "w") as fh:
            fh.write("payload")
        os.stat(path)
        os.rename(path, path + ".renamed")
        os.unlink(path + ".renamed")


def main() -> None:
    pfs_mount = tempfile.mkdtemp(prefix="padll-pfs-")
    stage = LiveStage(
        StageIdentity("live-stage", "interactive-job"), pfs_mounts=(pfs_mount,)
    )
    stage.create_channel("metadata", rate=100.0)
    stage.add_classifier_rule(
        ClassifierRule(
            name="all-metadata",
            channel_id="metadata",
            op_classes=frozenset(
                {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
            ),
        )
    )

    # A live control plane: 100 ops/s for 2 s, then 400 ops/s.
    controller = ControlPlane(config=ControlPlaneConfig(loop_interval=0.1))
    controller.register(stage)
    t0 = time.monotonic()
    controller.install_policy(
        PolicyRule(
            name="step-up",
            scope=RuleScope(channel_id="metadata"),
            schedule=SteppedRate([(0.0, 100.0), (2.0, 400.0)]),
        )
    )

    print(f"PFS mount: {pfs_mount}  (everything else passes through)")
    with LiveControlLoop(controller, clock=lambda: time.monotonic() - t0):
        with Interposer(stage, wrap_file_io=False):
            start = time.monotonic()
            last = start
            for batch in range(4):
                churn(pfs_mount, 50, offset=batch * 50)  # 200 metadata ops
                now = time.monotonic()
                granted = stage.granted_total("metadata")
                print(
                    f"batch {batch}: +{now - last:5.2f}s  "
                    f"cumulative {granted:5.0f} ops in {now - start:5.2f}s "
                    f"({granted / (now - start):6.1f} ops/s)  "
                    f"limit now {stage.channel_rate('metadata'):.0f} ops/s"
                )
                last = now
            # Non-PFS I/O is untouched (no throttling delay).
            t_free = time.monotonic()
            with tempfile.TemporaryDirectory() as other:
                churn(other, 100)
            print(
                f"200 non-PFS metadata ops took {time.monotonic() - t_free:.3f}s "
                f"(passthrough: {stage.passthrough_total:.0f} calls)"
            )


if __name__ == "__main__":
    main()
