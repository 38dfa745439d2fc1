"""Per-request span tracing with deterministic head-based sampling.

A request picked by the sampler carries a :class:`TraceContext` from the
stage's classify/enqueue step through token wait to MDS service and
reply.  Every span is stamped exclusively with caller-provided sim-clock
times; the tracer holds no clock and draws no entropy beyond a pure
integer hash of ``(seed, ordinal)``, so the sampling decision for the
N-th classified request is a function of the run's seed and sampling
rate alone -- identical across processes, platforms, and reruns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigError

__all__ = ["Span", "TraceContext", "Tracer", "sample_uniform"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = float(1 << 64)


def _splitmix64(x: int) -> int:
    """One splitmix64 round: a fast, well-mixed 64-bit permutation."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_uniform(seed: int, ordinal: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for the ``ordinal``-th head decision."""
    mixed = _splitmix64(((seed & _MASK64) * _GOLDEN + ordinal) & _MASK64)
    return mixed / _TWO64


class TraceContext:
    """The id a sampled request carries through the pipeline."""

    __slots__ = ("trace_id", "ordinal")

    def __init__(self, trace_id: str, ordinal: int) -> None:
        self.trace_id = trace_id
        self.ordinal = ordinal

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext({self.trace_id})"


class Span:
    """One sim-clock-stamped interval (or instant, when start == end)."""

    __slots__ = ("trace_id", "name", "start", "end", "attrs")

    def __init__(
        self, trace_id: str, name: str, start: float, end: float, attrs: Dict[str, object]
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        """The span as JSON-safe data: what the JSONL export, the span
        queries and a stage host's telemetry push carry."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            str(doc["trace_id"]),
            str(doc["name"]),
            float(doc["start"]),
            float(doc["end"]),
            dict(doc.get("attrs", {})),
        )


class Tracer:
    """Head-based sampler plus append-only span log.

    ``sample()`` is called once per classified request; it advances the
    ordinal whether or not the request is picked, so changing the
    sampling rate never shifts which ordinal a request gets.  Spans are
    appended in emission order, which is simulation order -- the JSONL
    export of two identical runs is therefore byte-identical.
    """

    __slots__ = ("seed", "sample_rate", "spans", "_ordinal")

    def __init__(self, seed: int = 0, sample_rate: float = 0.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.seed = int(seed)
        self.sample_rate = float(sample_rate)
        self.spans: List[Span] = []
        self._ordinal = 0

    @property
    def ordinal(self) -> int:
        """Head decisions taken so far (sampled or not)."""
        return self._ordinal

    def sample(self) -> Optional[TraceContext]:
        """Head decision for the next request: a context, or ``None``."""
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0 and sample_uniform(self.seed, ordinal) >= rate:
            return None
        return TraceContext(f"{self.seed & _MASK64:016x}-{ordinal:08d}", ordinal)

    def emit_span(
        self,
        ctx: TraceContext,
        name: str,
        start: float,
        end: float,
        **attrs: object,
    ) -> None:
        """Record a closed interval span stamped with sim-clock times."""
        self.spans.append(Span(ctx.trace_id, name, start, end, attrs))

    def emit_point(self, ctx: TraceContext, name: str, now: float, **attrs: object) -> None:
        """Record an instantaneous span at sim time ``now``."""
        self.spans.append(Span(ctx.trace_id, name, now, now, attrs))
