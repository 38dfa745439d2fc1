"""Bounded append-only log with list semantics.

The control plane keeps two audit trails -- the enforcement log and the
eviction log -- that experiments assert against with plain list
comparisons and iteration.  Under :class:`~repro.interpose.loop.
LiveControlLoop` those lists previously grew without bound (one
enforcement entry per job per second, forever), a slow leak in any
long-running interposed process.

:class:`RingLog` keeps the newest ``capacity`` entries in a ``deque`` of
blocks: ``append`` / ``extend`` fill a row block, and ``extend_rows``
stores the vector cycle's ``(now, job_ids, rates)`` as one column block
whose row tuples are created only when the log is read.  It preserves
everything the experiments rely on: ``append``, ``len``, iteration
order, and equality against plain lists and tuples; a reader that wants
one row indexes a :meth:`~RingLog.snapshot`.
``dropped`` counts entries that fell off the front, so tests (and
operators) can tell a truncated trail from a short one.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from itertools import chain, islice, repeat
from typing import Any, Iterable, Iterator, List, Optional

from repro.errors import ConfigError

__all__ = ["RingLog"]


class _Columns:
    """The rows ``(head, keys[i], values.tolist()[i])`` for ``i >= start``:
    the same objects and float bits as rows built up front."""

    __slots__ = ("head", "keys", "values", "start")

    def __init__(self, head: Any, keys: Any, values: Any) -> None:
        self.head, self.keys, self.values, self.start = head, keys, values, 0

    def __len__(self) -> int:
        return len(self.keys) - self.start

    def newest(self, limit: Optional[int]) -> List[tuple]:
        lo = self.start if limit is None else max(self.start, len(self.keys) - limit)
        return list(zip(repeat(self.head), self.keys[lo:], self.values[lo:].tolist()))


def _newest(block: Any, limit: Optional[int]) -> List[Any]:
    """The newest ``limit`` rows of a block (all for ``None``), oldest first.

    A row block is a plain ``deque`` (a subclass slows ``append``).
    """
    if type(block) is not deque:
        return block.newest(limit)
    if limit is None:
        return list(block)
    rows = list(islice(reversed(block), limit))
    rows.reverse()
    return rows


class RingLog:
    """A bounded, list-like, append-only event trail.

    ``capacity=None`` means unbounded (exact legacy list behaviour).
    One thread writes; any thread may read through :meth:`snapshot`.
    """

    __slots__ = ("_blocks", "_tail", "_len", "_limit", "_capacity", "_cuts", "dropped")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError(f"RingLog capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._limit = sys.maxsize if capacity is None else capacity
        #: The row block ``append`` fills; always the last block.
        self._tail: deque = deque()
        self._blocks: deque = deque((self._tail,))
        self._len = 0
        #: Odd while a cut runs, so a reader can tell that blocks it copied
        #: were cut under it.  ``append`` cuts a lone tail without it: a
        #: reader copies that block with one iterator, and older blocks a
        #: stale copy still holds were dropped by a counted cut.
        self._cuts = 0
        #: Entries evicted off the front to honour ``capacity``.
        self.dropped = 0

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def append(self, item: Any) -> None:
        tail = self._tail
        tail.append(item)
        if self._len < self._limit:
            self._len += 1
        elif self._blocks[0] is tail:
            tail.popleft()
            self.dropped += 1
        else:
            self._drop(1)

    def extend(self, items: Iterable[Any]) -> None:
        """``append`` for every item, with the overflow counted once."""
        tail = self._tail
        before = len(tail)
        tail.extend(items)
        self._grow(len(tail) - before)

    def extend_rows(self, head: Any, keys: Any, values: Any) -> None:
        """``extend(zip(repeat(head), keys, values.tolist()))`` as one block
        that keeps ``keys`` and the numpy array ``values``: mutate neither."""
        if not len(keys):
            return
        blocks = self._blocks
        if self._tail:
            self._tail = deque()
        else:
            blocks.pop()
        blocks.append(_Columns(head, keys, values))
        blocks.append(self._tail)
        self._grow(len(keys))

    def _grow(self, n: int) -> None:
        self._len += n
        excess = self._len - self._limit
        if excess > 0:
            self._len = self._limit
            self._drop(excess)

    def _drop(self, n: int) -> None:
        """Cut the ``n`` oldest rows: whole blocks, then part of one."""
        self.dropped += n
        self._cuts += 1
        blocks = self._blocks
        while len(blocks[0]) <= n:
            n -= len(blocks.popleft())
        first = blocks[0]
        if type(first) is deque:
            for _ in repeat(None, n):
                first.popleft()
        else:
            first.start += n
        self._cuts += 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Any]:
        return iter(self.snapshot())

    def __bool__(self) -> bool:
        return self._len > 0

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RingLog):
            return len(self) == len(other) and self.snapshot() == other.snapshot()
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and self.snapshot() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.snapshot()[:4]
        tail = "" if self._len <= 4 else f", ... {self._len} total"
        return (
            f"RingLog(capacity={self._capacity}, dropped={self.dropped}, "
            f"entries={shown}{tail})"
        )

    def to_list(self) -> List[Any]:
        return self.snapshot()

    def snapshot(self, limit: Optional[int] = None) -> List[Any]:
        """A copy safe to take from a reader thread while a writer appends.

        Blocks are copied newest first, each with one iterator, so rows a
        writer adds meanwhile land after the copy.  A row block changed
        under its iterator (``RuntimeError``) or a cut of blocks the copy
        holds makes it start over.  ``limit`` keeps only the newest
        entries and copies only those.
        """
        if limit is None or limit < 0 or limit > self._limit:
            # Never more than ``capacity``: a writer shows new rows before
            # it cuts the oldest, and a copy taken in between holds both.
            limit = self._capacity
        while True:
            cuts = self._cuts
            if cuts & 1:
                time.sleep(0)  # a writer is mid-cut: let it finish
                continue
            parts, want = [], limit
            try:
                for block in reversed(tuple(self._blocks)):
                    if want == 0:
                        break
                    parts.append(_newest(block, want))
                    if want is not None:
                        want -= len(parts[-1])
            except RuntimeError:
                continue
            if self._cuts == cuts:
                return list(chain.from_iterable(reversed(parts)))
