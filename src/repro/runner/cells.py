"""Sweep cells: one independent ``(experiment, config, seed)`` world-run.

A :class:`Cell` is the unit the sweep runner schedules, caches, and
compares.  The experiment registry maps a cell's ``experiment`` key to a
module-level runner function (module-level so cells can be dispatched to
multiprocessing workers), and the grid builders below reproduce the
paper's artefact grids cell-by-cell:

* ``fig4_grid`` -- five metadata-target panels; each cell runs the three
  setups (baseline / passthrough / padll) internally because the PADLL
  step limits are derived from that cell's own baseline series;
* ``fig5_grid`` -- the four per-job QoS setups;
* ``ablation_grid`` -- the control-lag, burst-size, and loop-interval
  design-knob sweeps;
* ``harm_grid`` -- the protected and unprotected MDS-overload runs;
* ``overhead_grid`` -- the simulated interception-overhead check;
* ``dependability_grid`` -- control-plane fault sweeps (RPC loss,
  latency, partitions), flat vs hierarchical vs split-job hierarchical;
* ``sharded_grid`` -- fig4-style runs on the sharded fluid engine at
  several shard counts (digest-equal by construction; the sweep cache
  sees one result per configuration regardless of shards).

Determinism: every cell carries its own seed and the experiments seed
their generators from it explicitly; nothing reads global RNG state, so
cells produce bit-identical results wherever (and in whatever order)
they run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "Cell",
    "ARTEFACTS",
    "EXPERIMENTS",
    "GRIDS",
    "resolve",
    "run_cell",
    "grid",
    "fig4_grid",
    "fig5_grid",
    "ablation_grid",
    "harm_grid",
    "overhead_grid",
    "dependability_grid",
    "sharded_grid",
    "full_grid",
]


@dataclass(frozen=True)
class Cell:
    """One independent world-run of a sweep grid."""

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        # Freeze params into a plain dict so cells pickle cleanly and the
        # cache's canonical JSON sees exactly what the runner will pass.
        object.__setattr__(self, "params", dict(self.params))

    @property
    def name(self) -> str:
        """Human-readable cell label for progress lines."""
        detail = self.params.get("target") or self.params.get("setup_name")
        if detail is None and "protected" in self.params:
            detail = "protected" if self.params["protected"] else "unprotected"
        if detail is None and "axis" in self.params:
            detail = self.params["axis"]
            if "mode" in self.params:
                detail = f"{detail}-{self.params['mode']}"
        if detail is None and "n_shards" in self.params:
            detail = f"{self.params['n_shards']}shard"
        base = self.experiment if detail is None else f"{self.experiment}:{detail}"
        return f"{base}@seed{self.seed}"


# -- the experiment table ----------------------------------------------------------
# Literal "module:function" strings, resolved when a cell (or the CLI)
# runs one: building a grid, pickling a cell for a pool worker or
# filling argparse ``choices`` imports no experiment.  Every function
# takes ``seed`` plus the cell's params as keywords.

#: Cell experiment key -> the function one cell runs.
EXPERIMENTS: Dict[str, str] = {
    "fig4-metadata": "repro.experiments.fig4:run_fig4_metadata",
    "fig4-traced": "repro.telemetry.experiment:run_traced_fig4",
    "fig5": "repro.experiments.fig5:run_fig5",
    "ablation-lag": "repro.experiments.ablations:sweep_control_lag",
    "ablation-burst": "repro.experiments.ablations:sweep_burst_size",
    "ablation-loop": "repro.experiments.ablations:sweep_loop_interval",
    "harm": "repro.experiments.harm:run_harm",
    "overhead-sim": "repro.experiments.overhead:run_sim_overhead",
    "dependability": "repro.experiments.dependability:run_dependability",
    "fig4-sharded": "repro.experiments.fig4_sharded:run_fig4_sharded",
}

#: Params that arrive as JSON lists (a cell's params are what the cache
#: key canonicalises) and leave as the tuples the signatures declare.
TUPLE_PARAMS: Dict[str, str] = {"overhead-sim": "targets", "dependability": "levels"}

#: ``padll-repro experiment NAME`` -> the module's print-and-return ``main``.
ARTEFACTS: Dict[str, str] = {
    "fig1": "repro.experiments.fig1:main",
    "fig2": "repro.experiments.fig2:main",
    "fig4": "repro.experiments.fig4:main",
    "fig4-sharded": "repro.experiments.fig4_sharded:main",
    "fig5": "repro.experiments.fig5:main",
    "overhead": "repro.experiments.overhead:main",
    "harm": "repro.experiments.harm:main",
    "cost-aware": "repro.experiments.cost_aware:main",
    "dependability": "repro.experiments.dependability:main",
}


def resolve(target: str) -> Callable[..., Any]:
    """Import a table entry's module and return the named function."""
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def run_cell(cell: Cell) -> Any:
    """Execute one cell and return the experiment's result object."""
    params = dict(cell.params)
    listed = TUPLE_PARAMS.get(cell.experiment)
    if listed in params:
        params[listed] = tuple(params[listed])
    return resolve(EXPERIMENTS[cell.experiment])(seed=cell.seed, **params)


# -- grid builders ----------------------------------------------------------------
def fig4_grid(
    seed: int = 0,
    targets: Optional[Tuple[str, ...]] = None,
    duration: float = 1800.0,
    step_period: float = 360.0,
    drain_tail: float = 300.0,
) -> List[Cell]:
    """One cell per Fig. 4 metadata target (3 setups run inside each)."""
    from repro.experiments.fig4 import METADATA_TARGETS

    return [
        Cell(
            "fig4-metadata",
            {
                "target": target,
                "duration": duration,
                "step_period": step_period,
                "drain_tail": drain_tail,
            },
            seed=seed,
        )
        for target in (targets or METADATA_TARGETS)
    ]


def fig5_grid(seed: int = 0, duration: float = 3600.0) -> List[Cell]:
    """One cell per Fig. 5 setup."""
    from repro.experiments.fig5 import FIG5_SETUPS

    return [
        Cell("fig5", {"setup_name": setup, "duration": duration}, seed=seed)
        for setup in FIG5_SETUPS
    ]


def ablation_grid(
    seed: int = 0, duration: float = 600.0, loop_duration: float = 900.0
) -> List[Cell]:
    """The three design-knob sweeps, one cell each."""
    return [
        Cell("ablation-lag", {"duration": duration}, seed=seed),
        Cell("ablation-burst", {"duration": duration}, seed=seed),
        Cell("ablation-loop", {"duration": loop_duration}, seed=seed),
    ]


def harm_grid(seed: int = 0, duration: float = 3600.0) -> List[Cell]:
    """Unprotected and protected MDS-overload runs."""
    return [
        Cell("harm", {"protected": False, "duration": duration}, seed=seed),
        Cell("harm", {"protected": True, "duration": duration}, seed=seed),
    ]


def overhead_grid(seed: int = 0, duration: float = 600.0) -> List[Cell]:
    """The simulated baseline-vs-passthrough overhead check."""
    return [Cell("overhead-sim", {"duration": duration}, seed=seed)]


def dependability_grid(seed: int = 0, duration: float = 240.0) -> List[Cell]:
    """One cell per (fault axis, control-plane mode)."""
    from repro.experiments.dependability import FAULT_AXES, MODES

    return [
        Cell(
            "dependability",
            {"axis": axis, "mode": mode, "duration": duration},
            seed=seed,
        )
        for axis in FAULT_AXES
        for mode in MODES
    ]


def sharded_grid(
    seed: int = 0,
    n_jobs: int = 16,
    stages_per_job: int = 8,
    n_racks: int = 8,
    shard_counts: Tuple[int, ...] = (1, 2),
    clients_per_stage: int = 20,
    duration: float = 120.0,
    step_period: float = 30.0,
) -> List[Cell]:
    """fig4-sharded cells at several shard counts (results digest-equal).

    Note shard-count cells differ only in ``n_shards``, which never
    affects the computed floats -- running more than one is an
    invariance check, not extra coverage.  Kept out of ``full_grid``;
    the ``sharded`` sweep and CI's ``sharded-smoke`` job use it.
    """
    return [
        Cell(
            "fig4-sharded",
            {
                "n_jobs": n_jobs,
                "stages_per_job": stages_per_job,
                "n_racks": n_racks,
                "n_shards": n_shards,
                "clients_per_stage": clients_per_stage,
                "duration": duration,
                "step_period": step_period,
            },
            seed=seed,
        )
        for n_shards in shard_counts
    ]


#: Grid name -> (builder, the keywords ``--quick`` overrides: scaled-down
#: durations for CI smoke and local sanity runs).
GRIDS: Dict[str, Tuple[Callable[..., List[Cell]], Dict[str, Any]]] = {
    "fig4": (fig4_grid, {"duration": 120.0, "step_period": 60.0, "drain_tail": 30.0}),
    "fig5": (fig5_grid, {"duration": 300.0}),
    "ablations": (ablation_grid, {"duration": 120.0, "loop_duration": 300.0}),
    "harm": (harm_grid, {"duration": 300.0}),
    "overhead": (overhead_grid, {"duration": 120.0}),
    "dependability": (dependability_grid, {"duration": 90.0}),
    "sharded": (
        sharded_grid,
        {
            "n_jobs": 8,
            "stages_per_job": 4,
            "n_racks": 4,
            "clients_per_stage": 10,
            "duration": 60.0,
            "step_period": 15.0,
        },
    ),
}


def grid(name: str, seed: int = 0, quick: bool = False) -> List[Cell]:
    """The cells of one named grid; ``all`` is every grid but ``sharded``."""
    if name == "all":
        return [
            cell
            for part in GRIDS
            if part != "sharded"
            for cell in grid(part, seed, quick)
        ]
    builder, quick_overrides = GRIDS[name]
    return builder(seed=seed, **(quick_overrides if quick else {}))


def full_grid(seed: int = 0) -> List[Cell]:
    """Every paper-scale artefact grid, concatenated."""
    return grid("all", seed)
