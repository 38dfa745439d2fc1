"""Sweep runner: fan independent experiment runs across workers.

Every paper artefact is a grid of independent *cells* -- one
``(experiment, config, seed)`` world-run each: Fig. 4 is five target
panels, Fig. 5 four setups, the ablations three design-knob sweeps, and
so on.  This package runs such grids through a shared engine
(:class:`~repro.runner.sweep.SweepRunner`) that

* executes cells serially or across a multiprocessing pool (``jobs``),
  with deterministic per-cell seeding (the seed is part of the cell, and
  no experiment touches global RNG state), so parallel results are
  bit-identical to serial ones;
* memoises results in a content-addressed on-disk cache keyed by the
  cell's canonical config hash and the package version, so re-running an
  unchanged grid replays entirely from disk;
* emits structured per-cell progress lines.

``padll-repro sweep`` is the CLI front-end.
"""

from repro.runner.cache import ResultCache, cell_digest
from repro.runner.cells import (
    ARTEFACTS,
    EXPERIMENTS,
    GRIDS,
    Cell,
    ablation_grid,
    dependability_grid,
    fig4_grid,
    fig5_grid,
    full_grid,
    grid,
    harm_grid,
    overhead_grid,
    resolve,
    run_cell,
    sharded_grid,
)
from repro.runner.sweep import (
    SweepOutcome,
    SweepRunner,
    pool_start_method,
    results_equal,
)

__all__ = [
    "ARTEFACTS",
    "Cell",
    "EXPERIMENTS",
    "GRIDS",
    "ResultCache",
    "SweepOutcome",
    "SweepRunner",
    "ablation_grid",
    "dependability_grid",
    "cell_digest",
    "fig4_grid",
    "fig5_grid",
    "full_grid",
    "grid",
    "harm_grid",
    "overhead_grid",
    "pool_start_method",
    "resolve",
    "results_equal",
    "run_cell",
    "sharded_grid",
]
