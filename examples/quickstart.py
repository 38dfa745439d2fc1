#!/usr/bin/env python3
"""Quickstart: throttle a metadata burst with a PADLL stage.

Builds the minimal PADLL deployment -- one data-plane stage wired to a
control plane -- submits a burst of open() calls, and shows the stage
releasing them downstream at the administrator's rate.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    ClassifierRule,
    ControlPlane,
    DataPlaneStage,
    OperationClass,
    OperationType,
    PolicyRule,
    Request,
    RuleScope,
    StageIdentity,
)
from repro.core.policies import ConstantRate


def main() -> None:
    # 1. The file system "client": here, just a sink that counts arrivals.
    arrived: list[Request] = []

    # 2. A data-plane stage between the application and the file system.
    #    Only paths under /pfs are subject to control (mount differentiation).
    stage = DataPlaneStage(
        StageIdentity(stage_id="node0-stage", job_id="job42", hostname="node0"),
        sink=arrived.append,
        pfs_mounts=("/pfs",),
    )
    stage.create_channel("metadata")
    stage.add_classifier_rule(
        ClassifierRule(
            name="all-metadata",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )

    # 3. The control plane: register the stage, install a 100 ops/s cap.
    controller = ControlPlane()
    controller.register(stage)
    controller.install_policy(
        PolicyRule(
            name="cap-metadata",
            scope=RuleScope(channel_id="metadata", job_id="job42"),
            schedule=ConstantRate(100.0),
        )
    )

    # 4. An application burst: 1000 opens at t=0, plus some non-PFS traffic.
    for i in range(1000):
        stage.submit(Request(OperationType.OPEN, path=f"/pfs/data/f{i}"), now=0.0)
    stage.submit(Request(OperationType.OPEN, path="/tmp/scratch.log"), now=0.0)

    print(f"queued behind the stage : {stage.backlog():.0f} ops")
    print(f"passed through (non-PFS): {stage.passthrough_total:.0f} ops")

    # 5. Drive time forward: the control loop enforces, the stage drains.
    for second in range(12):
        now = float(second)
        controller.tick(now)
        released = stage.drain(now)
        print(
            f"t={now:4.0f}s  rate-limit={stage.channel_rate('metadata'):6.0f}  "
            f"released={released:6.0f}  backlog={stage.backlog():6.0f}"
        )

    total = sum(r.count for r in arrived)
    print(f"delivered to the FS so far: {total:.0f} ops "
          f"(burst {100.0:.0f} + 100 ops/s thereafter)")


if __name__ == "__main__":
    main()
