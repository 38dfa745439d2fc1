"""Synthetic live workload: application threads feeding LiveStages.

The operator service is only observable when something exercises the
data path, so each served world runs one driver thread per stage,
submitting classified metadata requests through
:meth:`~repro.interpose.live_stage.LiveStage.throttle` at a paced
offered rate.  The throttle *blocks* when the control loop clamps a
channel -- exactly the backpressure an LD_PRELOAD'd application thread
would feel -- so driver threads acquire with a short timeout and
re-check the stop flag between attempts; shutdown never waits on a
starved bucket.

Request streams are seeded per thread (op mix and path draws come from
``random.Random(seed ^ index)``), so two runs of the same config offer
the same sequence of requests, differing only in wall-clock pacing.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.core.requests import OperationType, Request
from repro.service.config import WorkloadSpec

__all__ = ["LiveWorkload"]

class _Driver(threading.Thread):
    """One application thread hammering one stage."""

    def __init__(
        self,
        stage,
        spec: WorkloadSpec,
        ops: Sequence[OperationType],
        seed: int,
        stop: threading.Event,
    ) -> None:
        super().__init__(name=f"padll-workload-{stage.identity.stage_id}", daemon=True)
        self._stage = stage
        self._spec = spec
        self._ops = list(ops)
        self._rng = random.Random(seed)
        # Named ``_halt`` (not ``_stop``): Thread owns a private ``_stop``.
        self._halt = stop
        self.submitted = 0
        self.admitted = 0

    def run(self) -> None:
        spec = self._spec
        stage = self._stage
        rng = self._rng
        pause = 1.0 / spec.rate if spec.rate > 0 else 0.0
        job = stage.identity.job_id
        while not self._halt.is_set():
            op = self._ops[rng.randrange(len(self._ops))]
            request = Request(
                op=op,
                path=f"{spec.path_prefix}/{job}/f{rng.randrange(4096)}",
                job_id=job,
            )
            self.submitted += 1
            if stage.throttle(request, stop=self._halt) is not None:
                self.admitted += 1
            # Pace the offered rate; the stop event doubles as the timer.
            if pause and self._halt.wait(pause):
                return


class LiveWorkload:
    """Per-stage driver threads with a shared stop flag."""

    def __init__(self, stages: Sequence, spec: WorkloadSpec, seed: int = 0) -> None:
        try:
            ops = [OperationType(name) for name in spec.ops]
        except ValueError as exc:
            raise ConfigError(f"unknown workload op: {exc}") from None
        self.spec = spec
        self._stop = threading.Event()
        self._drivers: List[_Driver] = [
            _Driver(stage, spec, ops, seed ^ (index * 0x9E3779B1), self._stop)
            for index, stage in enumerate(stages)
        ]

    def start(self) -> None:
        for driver in self._drivers:
            driver.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop all drivers, joining each within what is left of ``timeout``."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for driver in self._drivers:
            driver.join(max(0.0, deadline - time.monotonic()))

    def counters(self) -> Dict[str, float]:
        return {
            "threads": len(self._drivers),
            "submitted": sum(d.submitted for d in self._drivers),
            "admitted": sum(d.admitted for d in self._drivers),
        }

    @staticmethod
    def merge(
        reports: Iterable[Optional[Mapping[str, float]]],
    ) -> Optional[Dict[str, float]]:
        """Sum several workloads' :meth:`counters` (a world's stage hosts;
        None for one with no report); None when there is no report."""
        total: Dict[str, float] = {}
        for counters in filter(None, reports):
            for name, value in counters.items():
                total[name] = total.get(name, 0.0) + float(value)
        return total or None
