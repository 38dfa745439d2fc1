"""Reader-writer lock table over namespace paths.

The discrete MDS path takes locks the way a Lustre MDS conceptually does:
read locks for attribute lookups, write locks for namespace updates, and
multi-entry write locks (source + destination parents) for rename -- the
atomicity requirement that makes rename the most expensive operation.

Locks here are non-blocking bookkeeping: ``acquire`` either succeeds or
reports a conflict, and the MDS converts conflicts into queueing delay.
The table also keeps contention counters that tests and the monitoring
layer read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import ConfigError

__all__ = ["LockMode", "LockTable", "LockGrant", "LOCK_MODES"]


class LockMode(enum.Enum):
    """Lock compatibility class: readers share, writers exclude."""

    READ = "read"
    WRITE = "write"


#: Operation kind -> lock mode taken on the affected entries.
LOCK_MODES: Dict[str, LockMode] = {
    "getattr": LockMode.READ,
    "statfs": LockMode.READ,
    "open": LockMode.WRITE,
    "close": LockMode.WRITE,
    "setattr": LockMode.WRITE,
    "rename": LockMode.WRITE,
    "unlink": LockMode.WRITE,
    "link": LockMode.WRITE,
    "mkdir": LockMode.WRITE,
    "mknod": LockMode.WRITE,
    "rmdir": LockMode.WRITE,
    "sync": LockMode.READ,
}


@dataclass(slots=True)
class _Entry:
    readers: int = 0
    writer: bool = False


@dataclass(frozen=True, slots=True)
class LockGrant:
    """Token returned by a successful acquire; pass back to release."""

    paths: tuple[str, ...]
    mode: LockMode


class LockTable:
    """Path-keyed reader-writer locks with conflict accounting."""

    def __init__(self) -> None:
        self._entries: Dict[str, _Entry] = {}
        self.acquisitions = 0
        self.conflicts = 0

    def _entry(self, path: str) -> _Entry:
        entry = self._entries.get(path)
        if entry is None:
            entry = _Entry()
            self._entries[path] = entry
        return entry

    def can_acquire(self, paths: Sequence[str], mode: LockMode) -> bool:
        for path in paths:
            entry = self._entries.get(path)
            if entry is None:
                continue
            if entry.writer:
                return False
            if mode is LockMode.WRITE and entry.readers > 0:
                return False
        return True

    def acquire(self, paths: Sequence[str], mode: LockMode) -> LockGrant:
        """Atomically lock every path in ``paths`` or raise on conflict.

        All-or-nothing acquisition over a sorted, de-duplicated path set
        prevents deadlock between concurrent multi-path lockers (the
        standard total-order trick rename uses).
        """
        if not paths:
            raise ConfigError("acquire() needs at least one path")
        ordered = tuple(sorted(set(paths)))
        if not self.can_acquire(ordered, mode):
            self.conflicts += 1
            raise ConfigError(f"lock conflict on {ordered} ({mode.value})")
        for path in ordered:
            entry = self._entry(path)
            if mode is LockMode.READ:
                entry.readers += 1
            else:
                entry.writer = True
        self.acquisitions += 1
        return LockGrant(paths=ordered, mode=mode)

    def release(self, grant: LockGrant) -> None:
        for path in grant.paths:
            entry = self._entries.get(path)
            if entry is None:
                raise ConfigError(f"release of unheld lock on {path!r}")
            if grant.mode is LockMode.READ:
                if entry.readers <= 0:
                    raise ConfigError(f"read-lock underflow on {path!r}")
                entry.readers -= 1
            else:
                if not entry.writer:
                    raise ConfigError(f"write-lock underflow on {path!r}")
                entry.writer = False
            if entry.readers == 0 and not entry.writer:
                del self._entries[path]

    @property
    def held(self) -> int:
        """Number of paths with at least one lock held."""
        return len(self._entries)
