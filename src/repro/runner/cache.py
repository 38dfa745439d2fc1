"""Content-addressed result cache for sweep cells.

A cell's digest is the SHA-256 of its canonical JSON description --
experiment name, sorted parameters, seed -- prefixed with the package
version and a cache schema version; an entry's key folds in a digest of
the package's source bytes too.  Any change to the cell's config, to the
package version, to the cache layout or to one byte of the source
therefore produces a different key (a cold miss) instead of silently
replaying a stale result.  Values are pickled result objects; pickling
round-trips numpy float64 arrays exactly, so a cache replay is
bit-identical to the run that produced it.

Entries are written atomically (temp file + rename) so a sweep killed
mid-write never leaves a truncated entry behind, and concurrent workers
racing on the same cell both land a complete file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Tuple

from repro import __version__
from repro.errors import ConfigError
from repro.runner.cells import Cell

__all__ = ["CACHE_VERSION", "ResultCache", "cell_digest"]

#: Bump to invalidate every existing cache entry (layout/semantic changes).
CACHE_VERSION = 1


def cell_digest(cell: Cell) -> str:
    """Canonical content hash of one cell's full configuration."""
    try:
        payload = json.dumps(
            {
                "cache_version": CACHE_VERSION,
                "repro_version": __version__,
                "experiment": cell.experiment,
                "params": cell.params,
                "seed": cell.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    except TypeError as exc:
        raise ConfigError(
            f"cell {cell.name} has non-JSON-serialisable params: {exc}"
        ) from None
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the package (path and bytes),
    computed once per process."""
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ResultCache:
    """On-disk pickle store keyed by :func:`cell_digest` under
    :func:`source_digest`."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, cell: Cell) -> Path:
        key = f"{source_digest()}:{cell_digest(cell)}".encode("utf-8")
        # A readable prefix keeps the cache directory greppable; the
        # key alone carries the addressing.
        slug = cell.experiment.replace("/", "-")
        return self.root / f"{slug}-{hashlib.sha256(key).hexdigest()[:24]}.pkl"

    def get(self, cell: Cell) -> Tuple[bool, Optional[Any]]:
        """Return ``(hit, result)``; corrupt entries read as misses."""
        path = self.path_for(cell)
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # Unreadable or stale entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return False, None

    def put(self, cell: Cell, result: Any) -> Path:
        """Store ``result`` atomically; returns the entry path."""
        path = self.path_for(cell)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path
