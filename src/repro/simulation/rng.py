"""Deterministic random-number plumbing.

All stochastic components (trace generators, RPC jitter, workload noise)
draw from generators created here so that a single experiment seed pins the
entire run.  A component that needs its own stream takes a
``SeedSequence`` (or a seed derived from the experiment's), so components
stay independent without manual seed bookkeeping.
"""

from __future__ import annotations

from numpy.random import Generator, PCG64, SeedSequence

__all__ = ["make_rng", "SeedSequence"]


def make_rng(seed: int | SeedSequence | None = None) -> Generator:
    """Create a PCG64 generator from ``seed`` (None = OS entropy)."""
    if isinstance(seed, SeedSequence):
        return Generator(PCG64(seed))
    return Generator(PCG64(SeedSequence(seed)))

