"""Bounded append-only log with list semantics.

The control plane keeps two audit trails -- the enforcement log and the
eviction log -- that experiments assert against with plain list
comparisons and iteration.  Under :class:`~repro.interpose.loop.
LiveControlLoop` those lists previously grew without bound (one
enforcement entry per job per second, forever), a slow leak in any
long-running interposed process.

:class:`RingLog` keeps the newest ``capacity`` entries in a ``deque``
while preserving everything the experiments rely on: ``append``,
``len``, iteration order, indexing/slicing, and equality against plain
lists and tuples.  ``dropped`` counts entries that fell off the front,
so tests (and operators) can tell a truncated trail from a short one.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional

from repro.errors import ConfigError

__all__ = ["RingLog"]


class RingLog:
    """A bounded, list-like, append-only event trail.

    ``capacity=None`` means unbounded (exact legacy list behaviour).
    """

    __slots__ = ("_entries", "_capacity", "dropped")

    def __init__(
        self,
        capacity: Optional[int] = None,
        initial: Iterable[Any] = (),
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError(f"RingLog capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        #: Entries evicted off the front to honour ``capacity``.
        self.dropped = 0
        self.extend(initial)

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def append(self, item: Any) -> None:
        entries = self._entries
        if self._capacity is not None and len(entries) == self._capacity:
            self.dropped += 1
        entries.append(item)

    def extend(self, items: Iterable[Any]) -> None:
        """``append`` for every item, with the overflow counted once."""
        entries = self._entries
        if self._capacity is not None:
            if not hasattr(items, "__len__"):
                items = tuple(items)
            self.dropped += max(0, len(entries) + len(items) - self._capacity)
        entries.extend(items)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RingLog):
            return self._entries == other._entries
        if isinstance(other, (list, tuple)):
            return len(self._entries) == len(other) and all(
                a == b for a, b in zip(self._entries, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = list(islice(self._entries, 0, 4))
        tail = "" if len(self._entries) <= 4 else f", ... {len(self._entries)} total"
        return (
            f"RingLog(capacity={self._capacity}, dropped={self.dropped}, "
            f"entries={shown}{tail})"
        )

    def to_list(self) -> List[Any]:
        return list(self._entries)

    def snapshot(self, limit: Optional[int] = None) -> List[Any]:
        """A copy safe to take from a reader thread while a writer appends.

        ``list(deque)`` is not atomic: a concurrent ``append`` raises
        ``RuntimeError: deque mutated during iteration``.  The operator
        server reads the control plane's audit trails while the live
        loop keeps appending, so this retries the copy until one pass
        completes cleanly (appends are fast; in practice one retry
        suffices).  ``limit`` keeps only the newest entries.
        """
        while True:
            try:
                entries = list(self._entries)
            except RuntimeError:
                continue
            if limit is not None and limit >= 0:
                return entries[len(entries) - min(limit, len(entries)):]
            return entries
