"""The metrics registry: counters, gauges, and histograms.

Components publish through *handles* obtained once at attach time
(:meth:`MetricsRegistry.counter` and friends intern on ``(name, labels)``),
so the hot-path cost of an enabled metric is one attribute load plus a
float add.  Nothing in the registry reads a clock, which is what lets
instrumented runs stay bit-identical to uninstrumented ones.

The registry also owns :class:`~repro.monitoring.metrics.TimeSeries`
instances (see :meth:`timeseries`), which is how the monitoring
collector publishes its sampled series into the same namespace as the
counter/gauge/histogram metrics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.monitoring.metrics import TimeSeries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value. ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins value (rates, backlogs, limits)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with cumulative totals.

    ``bounds`` are the inclusive upper bucket edges; one implicit
    ``+Inf`` bucket is appended.  ``observe(value, n)`` adds ``n``
    observations of ``value`` (weighted observes keep per-batch fluid
    accounting cheap).
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "count", "total")

    def __init__(self, name: str, labels: LabelsKey, bounds: Tuple[float, ...]) -> None:
        if not bounds:
            raise ConfigError(f"histogram {name!r} needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])):
            raise ConfigError(
                f"histogram {name!r} bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.bounds = ordered
        self._counts = [0.0] * (len(ordered) + 1)  # trailing +Inf bucket
        self.count = 0.0
        self.total = 0.0

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket tables here are short (<=16) and the scan
        # usually exits in the first few edges for latency-shaped data.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    def observe(self, value: float, n: float = 1.0) -> None:
        index = self._bucket_index(value)
        self._counts[index] += n
        self.count += n
        self.total += value * n

    def bucket_counts(self) -> Tuple[float, ...]:
        """Raw per-bucket totals over all time (last entry is +Inf).

        :meth:`MetricsRegistry.absolutes` ships them; :meth:`merge` is
        the receiving end.
        """
        return tuple(self._counts)

    def merge(self, counts: Sequence[float], total: float) -> None:
        """Fold a remote histogram *delta* into this one.

        ``counts`` must be bucket-aligned (same bounds, trailing +Inf);
        the delta is added to the all-time totals, as if the
        observations had happened locally.
        """
        if len(counts) != len(self._counts):
            raise ConfigError(
                f"histogram {self.name!r} merge needs {len(self._counts)} "
                f"buckets, got {len(counts)}"
            )
        added = 0.0
        for index, n in enumerate(counts):
            self._counts[index] += n
            added += n
        self.count += added
        self.total += total

    def cumulative(self) -> List[Tuple[float, float]]:
        """Prometheus-style cumulative ``(le, count)`` pairs over all time."""
        pairs: List[Tuple[float, float]] = []
        running = 0.0
        for bound, bucket in zip(self.bounds, self._counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self._counts[-1]))
        return pairs


class MetricsRegistry:
    """Interning factory and namespace for every metric in one world.

    Handles are interned on ``(name, sorted labels)``; asking twice
    returns the same object, asking for the same name with a different
    metric kind raises :class:`~repro.errors.ConfigError`.  Iteration
    order is insertion order (deterministic: attach order is fixed by
    world construction), and the exporters sort on top of it.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _intern(self, kind: str, name: str, labels: Dict[str, object]):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise ConfigError(
                f"metric {name!r} already registered as a {known}, not a {kind}"
            )
        key = (name, _labels_key(labels))
        return key, self._metrics.get(key)

    def counter(self, name: str, **labels: object) -> Counter:
        key, found = self._intern("counter", name, labels)
        if found is None:
            found = Counter(name, key[1])
            self._metrics[key] = found
        return found  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        key, found = self._intern("gauge", name, labels)
        if found is None:
            found = Gauge(name, key[1])
            self._metrics[key] = found
        return found  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = (), **labels: object
    ) -> Histogram:
        key, found = self._intern("histogram", name, labels)
        if found is None:
            found = Histogram(name, key[1], bounds)
            self._metrics[key] = found
        return found  # type: ignore[return-value]

    def timeseries(self, name: str, **labels: object) -> TimeSeries:
        """A :class:`TimeSeries` registered under this namespace.

        The monitoring collector publishes its sampled probe series
        through here so snapshots see them alongside the counters.
        """
        key, found = self._intern("timeseries", name, labels)
        if found is None:
            found = TimeSeries(name=name)
            self._metrics[key] = found
        return found  # type: ignore[return-value]

    def describe(self, name: str, help_text: str) -> None:
        """Attach a one-line description, rendered as a ``# HELP`` line.

        Describing the same name twice with different text raises: a
        metric family has exactly one help string in the exposition
        format, and silently replacing it would make two exporters of
        the same registry disagree.
        """
        known = self._help.get(name)
        if known is not None and known != help_text:
            raise ConfigError(
                f"metric {name!r} already described as {known!r}"
            )
        self._help[name] = help_text

    def help_for(self, name: str) -> Optional[str]:
        return self._help.get(name)

    def items(self) -> Iterator[Tuple[str, LabelsKey, str, object]]:
        """Yield ``(name, labels, kind, metric)`` in insertion order.

        The metric table is materialised before iteration so a reader
        thread (the operator server's scrape path) can walk a consistent
        snapshot while the single writer -- the control loop -- interns
        new handles concurrently.
        """
        for (name, labels), metric in list(self._metrics.items()):
            yield name, labels, self._kinds[name], metric

    def absolutes(self) -> List[List[Any]]:
        """Every counter, gauge and histogram as its all-time value.

        One ``[name, label pairs, kind, value]`` row per metric, a
        histogram's value being ``{"bounds", "counts", "total"}``: what a
        stage host pushes each period.  :meth:`merge_absolutes` is the
        receiving end.
        """
        rows: List[List[Any]] = []
        for name, labels, kind, metric in self.items():
            pairs = [list(pair) for pair in labels]
            if kind in ("counter", "gauge"):
                rows.append([name, pairs, kind, metric.value])
            elif kind == "histogram":
                value = {
                    "bounds": list(metric.bounds),
                    "counts": list(metric.bucket_counts()),
                    "total": metric.total,
                }
                rows.append([name, pairs, kind, value])
        return rows

    def merge_absolutes(
        self, rows: Iterable[Sequence[Any]], last_seen: Dict[Any, Any]
    ) -> None:
        """Fold one sender's :meth:`absolutes` into this registry.

        ``last_seen`` holds what the same sender reported before and is
        updated in place; a new sender starts from an empty one, so it
        counts from zero.  Counters and histograms add their delta
        against it, which lets many senders aggregate; gauges
        last-write-win (labels carry the stage id, so senders never
        collide).
        """
        for name, label_pairs, kind, value in rows:
            labels = {str(k): v for k, v in label_pairs}
            key = (name, _labels_key(labels))
            if kind == "counter":
                delta = value - last_seen.get(key, 0.0)
                if delta:
                    self.counter(name, **labels).inc(delta)
                last_seen[key] = value
            elif kind == "gauge":
                self.gauge(name, **labels).set(value)
            elif kind == "histogram":
                counts = list(value["counts"])
                total = float(value["total"])
                last_counts, last_total = last_seen.get(
                    key, ([0.0] * len(counts), 0.0)
                )
                deltas = [c - lc for c, lc in zip(counts, last_counts)]
                if any(deltas):
                    self.histogram(
                        name, bounds=tuple(value["bounds"]), **labels
                    ).merge(deltas, total - last_total)
                last_seen[key] = (counts, total)

    def get(self, name: str, **labels: object) -> Optional[object]:
        return self._metrics.get((name, _labels_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)
