"""The paper's trace replayer.

Section IV: "we implemented a trace replayer that submits ('replays')
metadata operations with an identical request distribution as the one
observed from the logs collected at PFS_A.  The replayer is
multi-threaded, and each thread submits a specific operation type at a
rate that follows the same performance curve as the original logs.  The
rate of each operation was scaled-down to half [...] the execution period
was also accelerated, where each second of the replayer corresponds to a
minute's worth of operations in the original log."

:class:`TraceReplayer` is that tool: one logical thread per operation
kind, each reading the trace's per-sample counts and emitting the scaled
batch for every simulated second.  :class:`ReplayDriver` wires a replayer
to a simulation environment and a submit target (a PADLL stage or a bare
PFS client).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.requests import OperationType, Request, batch_request
from repro.pfs.client import PFS_MOUNT
from repro.simulation.engine import Environment
from repro.simulation.ticker import DT, Ticker
from repro.workloads.trace import OpTrace

__all__ = ["KIND_TO_OP", "TraceReplayer", "ReplayDriver"]

#: Per-kind slices a driver submits round-robin within a tick.  The real
#: replayer's threads interleave at request granularity; without slicing,
#: one-batch-per-kind FIFO queues serialise kinds and the downstream MDS
#: sees single-kind (worst: all-rename) seconds that misrepresent the
#: offered cost mix.
INTERLEAVE = 8

#: MDS operation kind -> representative POSIX call the replayer issues.
#: Each kind is the MDS kind of its call (``MDS_KIND_BY_OP``), so a replay
#: row's kind routes it without a lookup on the op.
KIND_TO_OP: Mapping[str, OperationType] = {
    "open": OperationType.OPEN,
    "close": OperationType.CLOSE,
    "getattr": OperationType.STAT,
    "setattr": OperationType.CHMOD,
    "rename": OperationType.RENAME,
    "mkdir": OperationType.MKDIR,
    "mknod": OperationType.MKNOD,
    "rmdir": OperationType.RMDIR,
    "statfs": OperationType.STATFS,
    "sync": OperationType.SYNC,
    "unlink": OperationType.UNLINK,
    "link": OperationType.LINK,
    "read": OperationType.READ,
    "write": OperationType.WRITE,
}


class TraceReplayer:
    """Replays an :class:`OpTrace` at scaled rate and accelerated time.

    ``acceleration`` maps original-log time to replay time (60 means one
    original minute plays in one second).  ``rate_scale`` scales every
    count (0.5 is the paper's setting).  ``kinds`` optionally restricts
    replay to a subset of threads (the per-operation-type experiments).
    """

    def __init__(
        self,
        trace: OpTrace,
        acceleration: float = 60.0,
        rate_scale: float = 0.5,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        if acceleration <= 0:
            raise ConfigError(f"acceleration must be positive, got {acceleration}")
        if rate_scale <= 0:
            raise ConfigError(f"rate scale must be positive, got {rate_scale}")
        self.trace = trace
        self.acceleration = float(acceleration)
        self.rate_scale = float(rate_scale)
        if kinds is None:
            self.kinds = tuple(trace.kinds)
        else:
            missing = [k for k in kinds if k not in trace.kinds]
            if missing:
                raise ConfigError(f"trace has no kinds {missing}")
            self.kinds = tuple(kinds)
        for kind in self.kinds:
            if kind not in KIND_TO_OP:
                raise ConfigError(f"no POSIX mapping for kind {kind!r}")

    @property
    def replay_duration(self) -> float:
        """Seconds of replay time needed to play the whole trace."""
        return self.trace.duration / self.acceleration

    def demand(self, replay_time: float, dt: float) -> Dict[str, float]:
        """Operations each thread submits during [replay_time, replay_time+dt).

        The replayer reproduces the original *rate curve* compressed in
        time: while replay second ``t`` plays original minute ``t``, the
        submission rate equals the original rate of that minute (times
        ``rate_scale``), so a thread submits ``rate * dt`` operations per
        tick.  Integrating the trace over the covered original-time window
        and dividing by the acceleration makes this exact under any tick
        size (sub-sample and multi-sample ticks conserve totals).
        """
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        start = replay_time * self.acceleration
        stop = (replay_time + dt) * self.acceleration
        period = self.trace.sample_period
        n = self.trace.n_samples
        lo = start / period
        hi = stop / period
        out: Dict[str, float] = {}
        first = max(0, int(math.floor(lo)))
        last = min(n - 1, int(math.ceil(hi)) - 1)
        if last < first:
            return {k: 0.0 for k in self.kinds}
        for kind in self.kinds:
            col = self.trace.counts[:, self.trace.kind_index(kind)]
            total = 0.0
            for idx in range(first, last + 1):
                overlap = min(hi, idx + 1) - max(lo, idx)
                if overlap > 0:
                    total += col[idx] * overlap
            out[kind] = total * self.rate_scale / self.acceleration
        return out

    def schedule(self, replay_times: Sequence[float], dt: float) -> np.ndarray:
        """Batched :meth:`demand`: one ``(n_ticks, n_kinds)`` matrix.

        Row ``i`` equals ``demand(replay_times[i], dt)`` *bit-exactly*
        (same per-sample products accumulated in the same order, scaled by
        the same two operations), so a driver iterating precomputed rows
        reproduces the per-tick path's output to the last ulp.  Columns
        follow ``self.kinds`` order.
        """
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        times = np.asarray(replay_times, dtype=np.float64)
        n_ticks = times.shape[0]
        cols = np.ascontiguousarray(
            self.trace.counts[:, [self.trace.kind_index(k) for k in self.kinds]]
        )
        n = self.trace.n_samples
        period = self.trace.sample_period
        start = times * self.acceleration
        stop = (times + dt) * self.acceleration
        lo = start / period
        hi = stop / period
        first = np.maximum(0, np.floor(lo).astype(np.int64))
        last = np.minimum(n - 1, np.ceil(hi).astype(np.int64) - 1)
        total = np.zeros((n_ticks, len(self.kinds)))
        span = int((last - first).max()) + 1 if n_ticks else 0
        for j in range(span):
            idx = first + j
            valid = idx <= last
            # demand() adds only overlap > 0 terms; adding a zero term for
            # the rest leaves every accumulator bit-identical.
            overlap = np.minimum(hi, (idx + 1).astype(np.float64))
            overlap -= np.maximum(lo, idx.astype(np.float64))
            overlap = np.where(valid & (overlap > 0.0), overlap, 0.0)
            total += cols[np.minimum(idx, n - 1)] * overlap[:, None]
        return total * self.rate_scale / self.acceleration

    def total_ops(self, kind: Optional[str] = None) -> float:
        """Total operations the replayer will submit for ``kind`` (or all)."""
        scale = self.rate_scale / self.acceleration
        if kind is not None:
            return self.trace.total(kind) * scale
        return sum(self.trace.total(k) for k in self.kinds) * scale


class ReplayDriver:
    """Runs a replayer against a submit target inside a simulation.

    Every ``DT`` the driver hands ``batch_submit`` one row per replayed
    kind, ``(kind, op, path, slice_count)``, plus the interleave factor:
    the target performs the round-robin submission -- :data:`INTERLEAVE`
    rounds of one slice per kind -- itself.  Paths lie under
    :data:`~repro.pfs.client.PFS_MOUNT`.  Without a ``batch_submit``
    the rows are unrolled into one ``submit(Request)`` call per slice,
    exactly the stream a PADLL stage sees from the real replayer's
    threads.  The driver reports when submission has finished
    (``finished``), which experiments combine with downstream backlog to
    compute job completion times.
    """

    def __init__(
        self,
        env: Environment,
        replayer: TraceReplayer,
        submit: Optional[Callable[[Request], None]],
        job_id: str = "job1",
        start: float = 0.0,
        batch_submit: Optional[
            Callable[[List[Tuple[str, OperationType, str, float]], int], None]
        ] = None,
    ) -> None:
        if submit is None and batch_submit is None:
            raise ConfigError("replay driver needs a submit or a batch_submit")
        self.env = env
        self.replayer = replayer
        self.submit = submit
        self.batch_submit = batch_submit if batch_submit is not None else self._unroll
        self.job_id = job_id
        self.start = float(start)
        #: ``replayer.replay_duration``, read once: the trace never
        #: changes, and every tick compares against it.
        self._replay_duration = replayer.replay_duration
        self.submitted: Dict[str, float] = {k: 0.0 for k in replayer.kinds}
        self.finished_at: Optional[float] = None
        #: (kind, op, path) per replayed thread, resolved once instead of
        #: per (tick, kind) -- the replay loop is the experiments' hot path.
        self._kinds_info = [
            (kind, KIND_TO_OP[kind], f"{PFS_MOUNT}/{job_id}/data-{kind}")
            for kind in replayer.kinds
        ]
        #: Precomputed per-tick submission rows (built lazily on the first
        #: tick so the row grid matches the ticker's accumulated times
        #: bit-for-bit); ``None`` until then.
        self._schedule_rows: Optional[List[List[float]]] = None
        self._tick_index = 0
        # ``start`` is an absolute simulated time; the ticker wants a delay
        # relative to now (drivers are often created at their start time).
        delay = max(0.0, self.start - env.now)
        self._ticker = Ticker(env, DT, self._tick, start=delay, name=f"replay-{job_id}")

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def total_submitted(self) -> float:
        return sum(self.submitted.values())

    def _build_schedule(self, first_now: float) -> None:
        """Precompute every tick's submission row from the first tick time.

        Tick times accumulate (``t += DT``) exactly like the ticker's heap
        entries do, so row ``k`` is evaluated at the very float the ticker
        will report -- which keeps the batched path bit-identical to the
        per-tick :meth:`TraceReplayer.demand` path it replaced.
        """
        duration = self._replay_duration
        replay_times: List[float] = []
        t = first_now
        while t - self.start < duration:
            replay_times.append(t - self.start)
            t = t + DT
        matrix = self.replayer.schedule(replay_times, DT)
        self._schedule_rows = matrix.tolist()

    def _tick(self, now: float) -> None:
        replay_time = now - self.start
        if replay_time >= self._replay_duration:
            if self.finished_at is None:
                self.finished_at = now
            self._ticker.stop()
            return
        if self._schedule_rows is None:
            self._build_schedule(now)
        # Rows follow the ticker's own ``t + DT`` times from this first
        # tick up to the stop test above, so every tick has its row.
        index = self._tick_index
        self._tick_index = index + 1
        counts = self._schedule_rows[index]
        interleave = INTERLEAVE
        submitted = self.submitted
        slices = [
            (kind, op, path, count / interleave)
            for (kind, op, path), count in zip(self._kinds_info, counts)
        ]
        self.batch_submit(slices, interleave)
        # Per-kind submitted accumulators are independent, so grouping
        # each kind's ``INTERLEAVE`` adds together reproduces the
        # round-robin accumulation bit-for-bit.
        for kind, _op, _path, slice_count in slices:
            if slice_count <= 0:
                continue
            acc = submitted[kind]
            for _ in range(interleave):
                acc += slice_count
            submitted[kind] = acc

    def _unroll(
        self, slices: List[Tuple[str, OperationType, str, float]], interleave: int
    ) -> None:
        """Default ``batch_submit``: one ``submit(Request)`` per slice."""
        submit = self.submit
        job_id = self.job_id
        for _ in range(interleave):
            for _kind, op, path, slice_count in slices:
                if slice_count > 0:
                    submit(batch_request(op, path, job_id, slice_count))
