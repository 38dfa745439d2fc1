"""What the runner needs from a workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from padllbench import stats
from padllbench.calibrate import Meter
from padllbench.tracer import Span, SpanTracer

__all__ = ["Check", "Repeat", "Traced", "Workload", "digest_mismatches"]


@dataclass
class Check:
    """One correctness check: how many comparisons it made, how many failed."""

    name: str
    attempted: int
    failed: int
    detail: str = ""


@dataclass
class Repeat:
    """One timed repeat of a workload's fixed logical work."""

    #: Units of work done (simulated seconds, calls, ticks, cycles).
    work: float
    #: Wall seconds spent on that work, and the same at reference speed
    #: (calibration pauses excluded).
    raw_s: float
    norm_s: float
    #: Cost of each timed unit inside the repeat, microseconds at
    #: reference speed per unit of work.
    unit_costs_us: List[float]
    #: Work per second of each bracketed piece, where a repeat is made of
    #: equal pieces: the repeat's rate is then their median, which one
    #: stall does not move.  Empty: the rate is ``work / norm_s``.
    rates: List[float] = field(default_factory=list)
    #: Per-repeat samples of the workload's own named metrics.
    named: Dict[str, float] = field(default_factory=dict)
    #: Whatever the checks compare (digests, logs, counts).
    outputs: Any = None

    @property
    def work_per_s(self) -> float:
        if self.rates:
            return stats.median(self.rates)
        return self.work / self.norm_s


@dataclass
class Traced:
    """What the traced run hands a workload to derive its layer metrics."""

    #: span name -> (calls, total seconds, self seconds), reference speed.
    totals: Mapping[str, Tuple[int, float, float]]
    #: Retained spans, and the reference-speed factor of each one's repeat.
    spans: Sequence[Span]
    factors: Sequence[float]
    #: Sums of wrapped callables' return values (``SpanTracer.sums``).
    sums: Mapping[str, float]
    #: Traced wall seconds at reference speed, and the traced repeats.
    wall_s: float
    repeats: Sequence[Repeat]
    #: The untraced repeats run just before, and the isolated drives' results.
    reference: Sequence[Repeat] = ()
    isolated: Mapping[str, float] = field(default_factory=dict)

    def calls(self, *names: str) -> float:
        return float(sum(self.totals[n][0] for n in names if n in self.totals))

    def total_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def matching(self, prefix: str) -> List[str]:
        return [n for n in self.totals if n.startswith(prefix)]

    def durations_s(self, name: str) -> List[float]:
        """Reference-speed durations of the retained spans called ``name``."""
        return [
            (end - start) / 1e9 * factor
            for (_id, span_name, start, end, _parent, _trace), factor in zip(
                self.spans, self.factors
            )
            if span_name == name
        ]


class Workload:
    """Base class; see ``bench/README.md`` for the five concrete ones."""

    name = ""
    #: Pin the process to one CPU for the whole run (recorded in the result).
    pin = False
    #: Modules of the program this workload drives; importing them is the
    #: first part of ``setup_s``.
    imports: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Directory inside the checkout for files the workload must create.
        self.scratch = scratch

    # -- untraced run -----------------------------------------------------------
    def setup(self) -> None:
        """Everything before the first timed repeat: generate inputs, build
        worlds, pools, sockets, directories.  Timed as ``setup_s``."""

    def teardown(self) -> None:
        """Undo :meth:`setup` (the runner sets up several times)."""

    def warmup(self, meter: Meter) -> None:
        """A discarded, reduced repeat: fill caches, finish lazy imports."""
        self.repeat(meter)

    def repeat(self, meter: Meter) -> Repeat:
        raise NotImplementedError

    def traced_repeat(self, meter: Meter) -> Repeat:
        """The repeat the traced run puts spans around."""
        return self.repeat(meter)

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        raise NotImplementedError

    def named_units(self) -> Dict[str, str]:
        """The issue's names for this workload's metrics -> unit."""
        return {}

    #: Which named metric the generic ``work_per_s`` / ``unit_cost_us`` are
    #: on this workload (for the printed table and the README).
    work_per_s_is = ""
    unit_cost_us_is = ""

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        """Wrap this workload's layers' public callables."""

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        """Per-layer metrics derived from the spans."""
        return {}

    def isolated(self, meter: Meter) -> Dict[str, float]:
        """Per-layer metrics from driving single layers directly."""
        return {}


def digest_mismatches(digests: Sequence[Mapping[str, str]]) -> Tuple[int, int, str]:
    """Compare every repeat's ``{key: digest}`` against the first repeat's.

    Returns (comparisons made, mismatches, first mismatch or "")."""
    attempted = failed = 0
    detail = ""
    reference = digests[0] if digests else {}
    for index, current in enumerate(digests[1:], start=1):
        for key, expected in reference.items():
            attempted += 1
            if current.get(key) != expected:
                failed += 1
                detail = detail or f"repeat {index} {key}: {current.get(key)} != {expected}"
    return attempted, failed, detail
