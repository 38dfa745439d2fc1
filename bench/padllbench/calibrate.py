"""Timing at reference speed.

The sandbox this benchmark runs in is a small shared VM whose cores flip,
every few seconds, between a fast mode and one ~1.45x slower (measured:
a fixed single-threaded loop, no steal time reported).  A 10 s median of
raw wall time therefore spreads by 20-35 % from run to run, which would
drown every bound in ``BENCHMARK.json``.

So every timed unit of work is bracketed by a short, fixed, stdlib-only
*calibration kernel*, and its wall time is scaled by how fast the machine
ran that kernel at that moment::

    time_at_reference_speed = wall * NOMINAL_S / mean(kernel before, kernel after)

The kernel is not part of the program under test, so it can neither hide
nor invent a change in the program; it only cancels the machine.  On the
same ten-second windows the scaled medians spread by 1-5 %.  Raw wall
times are kept next to the scaled ones in every result file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, List

__all__ = ["NOMINAL_S", "Calibrator", "Meter", "Segments", "Timed"]

#: Kernel time at reference speed: what the kernel takes on the 2-vCPU
#: sandbox in its fast mode.  Scaled times read as "seconds on that
#: machine when nothing else disturbs it".
NOMINAL_S = 0.0033

_ITERATIONS = 800
_DOC = {"to": "stage-0", "msg": {"rates": [1.5, 2.5, 3.5], "channel": "metadata"}}

#: A calibration sample older than this is not reused as the "before" of
#: the next unit: the machine may have changed mode in between.
_FRESH_S = 0.02


def _kernel() -> float:
    dumps, loads, doc = json.dumps, json.loads, _DOC
    start = time.perf_counter()
    for _ in range(_ITERATIONS):
        loads(dumps(doc))
    return time.perf_counter() - start


class Calibrator:
    """Runs the kernel and remembers when it last did."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = 0.0
        self._last_at = -1.0

    def sample(self) -> float:
        """One kernel time.  Deliberately not a best-of: the slow mode is
        made of short stalls, and a minimum would filter them out of the
        kernel while the work around it suffers them."""
        value = _kernel()
        self.samples.append(value)
        self._last = value
        self._last_at = time.perf_counter()
        return value

    def recent(self) -> float:
        """The last sample if it was taken just now, else a new one."""
        if time.perf_counter() - self._last_at <= _FRESH_S:
            return self._last
        return self.sample()

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a wall time measured between two samples to
        reference speed."""
        return NOMINAL_S / ((before + after) / 2.0)


@dataclass(frozen=True)
class Timed:
    """One timed unit: wall seconds, the same at reference speed, and the
    callable's return value."""

    raw_s: float
    norm_s: float
    value: Any = None


class Meter:
    """Times callables at reference speed."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Timed:
        calibrator = self.calibrator
        before = calibrator.recent()
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        after = calibrator.sample()
        return Timed(raw, raw * calibrator.factor(before, after), value)


class Segments:
    """Reference-speed timing of one long call, from inside it.

    A simulation that runs for seconds cannot be bracketed from outside:
    the machine changes mode in the middle.  Something the program calls
    back on a schedule (an ``epoch_hook``, a ``Ticker``) calls :meth:`mark`
    instead; every ``every`` marks a calibration sample is taken, and the
    pieces since the last sample are scaled by the two samples around them.
    The samples' own time is left out.
    """

    def __init__(self, calibrator: Calibrator, every: int = 1) -> None:
        self.calibrator = calibrator
        self.every = every
        self.raw_s = 0.0
        self.norm_s = 0.0
        #: Reference-speed seconds of every piece (mark to mark), in order.
        self.pieces: List[float] = []
        #: Pieces per reference-speed second of every bracketed segment.
        self.rates: List[float] = []
        self._pending: List[float] = []
        self._before = 0.0
        self._previous = 0.0

    def start(self) -> None:
        self._before = self.calibrator.recent()
        self._previous = time.perf_counter()

    def mark(self) -> None:
        self._pending.append(time.perf_counter() - self._previous)
        if len(self._pending) >= self.every:
            self._close()
        else:
            self._previous = time.perf_counter()

    def finish(self) -> None:
        """Close the pieces marked since the last sample."""
        if self._pending:
            self._close()

    def _close(self) -> None:
        after = self.calibrator.sample()
        factor = self.calibrator.factor(self._before, after)
        self._before = after
        raw = sum(self._pending)
        self.raw_s += raw
        self.norm_s += raw * factor
        self.pieces.extend(piece * factor for piece in self._pending)
        self.rates.append(len(self._pending) / (raw * factor))
        self._pending = []
        self._previous = time.perf_counter()
