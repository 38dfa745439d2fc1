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

from repro import lazy_exports

_EXPORTS = {
    "ARTEFACTS": "repro.runner.cells",
    "Cell": "repro.runner.cells",
    "EXPERIMENTS": "repro.runner.cells",
    "GRIDS": "repro.runner.cells",
    "ResultCache": "repro.runner.cache",
    "SweepOutcome": "repro.runner.sweep",
    "SweepRunner": "repro.runner.sweep",
    "ablation_grid": "repro.runner.cells",
    "dependability_grid": "repro.runner.cells",
    "cell_digest": "repro.runner.cache",
    "fig4_grid": "repro.runner.cells",
    "fig5_grid": "repro.runner.cells",
    "full_grid": "repro.runner.cells",
    "grid": "repro.runner.cells",
    "harm_grid": "repro.runner.cells",
    "overhead_grid": "repro.runner.cells",
    "pool_start_method": "repro.runner.sweep",
    "resolve": "repro.runner.cells",
    "results_equal": "repro.runner.sweep",
    "run_cell": "repro.runner.cells",
    "sharded_grid": "repro.runner.cells",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
