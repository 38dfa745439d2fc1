"""The sweep engine: serial/parallel execution + cache + progress lines.

:class:`SweepRunner` takes a list of :class:`~repro.runner.cells.Cell`
and returns one :class:`SweepOutcome` per cell, in input order.  Cached
cells are served from disk without touching the pool; the remaining
cells run either in-process (``jobs=1``) or across a multiprocessing
pool.  Because cells are independent and deterministically seeded, the
three execution modes -- serial, parallel, cache replay -- produce
bit-identical results; :func:`results_equal` is the exact comparator the
tests (and any verification script) use to assert that.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.runner.cache import ResultCache
from repro.runner.cells import Cell, run_cell

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SweepOutcome",
    "SweepRunner",
    "pool_start_method",
    "results_equal",
]

#: Default on-disk cache location (override with $PADLL_SWEEP_CACHE).
DEFAULT_CACHE_DIR = ".padll-sweep-cache"


def pool_start_method() -> str:
    """Multiprocessing start method for worker pools.

    fork (where available) shares the already-imported package with
    workers; spawn re-imports it.  Either way results are bit-identical
    -- work units carry their seeds.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class SweepOutcome:
    """One cell's run record."""

    cell: Cell
    result: Any
    #: True when the result was replayed from the on-disk cache.
    cached: bool
    #: Wall seconds to produce the result (compute time, or cache-read time).
    elapsed_s: float


def _default_cache_dir() -> Path:
    return Path(os.environ.get("PADLL_SWEEP_CACHE", DEFAULT_CACHE_DIR))


def _pool_entry(item: Tuple[int, Cell]) -> Tuple[int, Any, float]:
    """Pool worker: run one cell; returns (index, result, elapsed)."""
    index, cell = item
    # Intentionally wall-clock: elapsed_s is operator-facing progress info;
    # tests/runner/test_timing_isolation.py asserts it never reaches cache
    # keys or cached payloads.
    started = time.perf_counter()  # padll: allow(DET001)
    result = run_cell(cell)
    return index, result, time.perf_counter() - started  # padll: allow(DET001)


class SweepRunner:
    """Runs cell grids with caching and optional multiprocessing fan-out.

    ``jobs`` is the worker-process count (1 = in-process serial).
    ``use_cache=False`` neither reads nor writes the cache.  ``log``
    receives one structured progress line per cell plus a summary (pass
    ``None`` to silence).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        use_cache: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.use_cache = bool(use_cache)
        self.cache = ResultCache(cache_dir if cache_dir is not None else _default_cache_dir())
        self._log = log if log is not None else self._default_log

    @staticmethod
    def _default_log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def run(self, cells: Sequence[Cell]) -> List[SweepOutcome]:
        """Execute every cell; outcomes come back in input order."""
        cells = list(cells)
        total = len(cells)
        # Wall-clock here is progress/telemetry only (see _pool_entry note).
        started = time.perf_counter()  # padll: allow(DET001)
        outcomes: List[Optional[SweepOutcome]] = [None] * total
        pending: List[Tuple[int, Cell]] = []
        done = 0

        for index, cell in enumerate(cells):
            if self.use_cache:
                read_start = time.perf_counter()  # padll: allow(DET001)
                hit, result = self.cache.get(cell)
                if hit:
                    elapsed = time.perf_counter() - read_start  # padll: allow(DET001)
                    outcomes[index] = SweepOutcome(
                        cell=cell, result=result, cached=True, elapsed_s=elapsed
                    )
                    done += 1
                    self._emit(done, total, cell, "cached", elapsed)
                    continue
            pending.append((index, cell))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                completions = map(_pool_entry, pending)
                done = self._collect(completions, cells, outcomes, done, total)
            else:
                workers = min(self.jobs, len(pending))
                context = multiprocessing.get_context(pool_start_method())
                with context.Pool(processes=workers) as pool:
                    completions = pool.imap_unordered(_pool_entry, pending)
                    done = self._collect(completions, cells, outcomes, done, total)

        wall = time.perf_counter() - started  # padll: allow(DET001)
        hits = sum(1 for o in outcomes if o is not None and o.cached)
        self._log(
            f"[sweep] {total} cells: {hits} cached, {total - hits} computed "
            f"in {wall:.1f}s ({self.jobs} jobs)"
        )
        return [o for o in outcomes if o is not None]

    def _collect(self, completions, cells, outcomes, done: int, total: int) -> int:
        for index, result, elapsed in completions:
            cell = cells[index]
            if self.use_cache:
                self.cache.put(cell, result)
            outcomes[index] = SweepOutcome(
                cell=cell, result=result, cached=False, elapsed_s=elapsed
            )
            done += 1
            self._emit(done, total, cell, "done", elapsed)
        return done

    def _emit(self, done: int, total: int, cell: Cell, status: str, elapsed: float) -> None:
        self._log(f"[sweep] {done}/{total} {cell.name} {status} ({elapsed:.2f}s)")


def results_equal(a: Any, b: Any) -> bool:
    """Exact (bit-level) structural equality over experiment results.

    Recurses through dataclasses, mappings, sequences, and numpy arrays;
    arrays compare by dtype, shape, and raw bytes, so two results are
    equal only when every float matches to the last ulp.  This is the
    comparator behind the serial == parallel == cache-replay guarantee.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return False
        return all(
            results_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, Mapping) or isinstance(b, Mapping):
        if not (isinstance(a, Mapping) and isinstance(b, Mapping)):
            return False
        if set(a.keys()) != set(b.keys()):
            return False
        return all(results_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        if not (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))):
            return False
        if len(a) != len(b):
            return False
        return all(results_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)  # NaN == NaN here
    return a == b
