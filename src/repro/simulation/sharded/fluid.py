"""Closed-form fluid rack shards: the vectorised stage/bucket fast path.

At the scale the ROADMAP targets (10^4 stages, 10^6 simulated clients)
per-request discrete events are pointless work: within one engine tick
every hot-path update -- token-bucket refill and grant, backlog
carryover, the rack MDS queue -- is closed-form arithmetic over the
tick.  A :class:`FluidRack` therefore keeps its stage population as
``numpy`` arrays and advances a whole rack per tick with a fixed
elementwise expression sequence.

Bit-identity contract (asserted by ``tests/simulation/test_sharded.py``):

* ``FluidRack(vectorized=False)`` runs the *same arithmetic* one stage at
  a time in a plain Python loop -- the reference the rack-level
  bit-identity test compares the array path against; the engine itself
  always builds vectorised racks.  Elementwise IEEE-754 adds/subs/mins are
  identical scalar-vs-vector by definition; the two places where
  evaluation strategy could reassociate floats are pinned to one
  implementation shared by both paths: the offered-load sine is always
  evaluated by ``np.sin`` over the full array (NumPy's SIMD kernels are
  not ulp-identical to ``math.sin``), and rack-level reductions always
  go through ``np.sum`` over the identical per-stage array (pairwise
  summation order).  Per-job partial accumulation uses ``np.bincount``,
  whose sequential element-order adds equal the scalar loop's.
* A rack is a sealed sub-world: every draw comes from its own
  generator, seeded by ``(config.seed, rack index)``, and no per-tick
  state crosses rack boundaries -- which is what makes shard-count
  invariance (1 shard == N shards) structural rather than incidental.

Demand partials follow the hierarchy's exact per-stage expression
(``offered = enqueued/window``, ``drain = backlog/loop_interval``,
accumulated per job in stage-registration order), so the merged global
demand the :class:`~repro.core.hierarchy.HierarchicalControlPlane` sees
is the same signal a resident
:class:`~repro.core.hierarchy.LocalController` would have reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.rng import SeedSequence, make_rng

__all__ = ["UNLIMITED", "FluidConfig", "RackSpec", "FluidRack"]

TWO_PI = 2.0 * math.pi

#: Channel rate meaning "no enforcement installed yet".
UNLIMITED = float("inf")


@dataclass(frozen=True, slots=True)
class FluidConfig:
    """Workload + substrate knobs shared by every rack of one run.

    The offered load of stage ``s`` is a lognormal per-stage base rate
    (``clients_per_stage * ops_per_client`` scaled by a seeded draw)
    modulated by a deterministic sinusoid:
    ``base * (1 + amplitude * sin(2*pi*(t/period + phase_s)))``.
    Clients are modelled in aggregate -- each stage fronts
    ``clients_per_stage`` clients' metadata streams -- which is how a
    run reaches 10^6 simulated clients at 10^4 stages.
    """

    seed: int = 0
    #: Fluid tick length (seconds); must divide the control epoch.
    dt: float = 1.0
    clients_per_stage: int = 100
    #: Mean metadata ops/s contributed by one client.
    ops_per_client: float = 8.0
    #: Relative swing of the sinusoidal demand modulation.
    demand_amplitude: float = 0.35
    #: Period (seconds) of the demand modulation.
    demand_period: float = 300.0
    #: Lognormal sigma of the per-stage base-rate draw.
    demand_sigma: float = 0.3
    #: Rack MDS service capacity, per hosted stage (ops/s).
    mds_capacity_per_stage: float = 600.0
    #: Token-bucket burst allowance, in seconds of the enforced rate.
    burst_seconds: float = 2.0
    #: Per-stage channel rate before the first enforcement push.
    initial_rate: float = UNLIMITED

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.clients_per_stage < 1:
            raise ConfigError(
                f"clients_per_stage must be >= 1, got {self.clients_per_stage}"
            )
        if self.ops_per_client <= 0:
            raise ConfigError(
                f"ops_per_client must be positive, got {self.ops_per_client}"
            )
        if not 0.0 <= self.demand_amplitude < 1.0:
            raise ConfigError(
                f"demand_amplitude must be in [0, 1), got {self.demand_amplitude}"
            )
        if self.demand_period <= 0:
            raise ConfigError(
                f"demand_period must be positive, got {self.demand_period}"
            )
        if self.demand_sigma < 0:
            raise ConfigError(
                f"demand_sigma must be >= 0, got {self.demand_sigma}"
            )
        if self.mds_capacity_per_stage <= 0:
            raise ConfigError(
                "mds_capacity_per_stage must be positive, got "
                f"{self.mds_capacity_per_stage}"
            )
        if self.burst_seconds <= 0:
            raise ConfigError(
                f"burst_seconds must be positive, got {self.burst_seconds}"
            )
        if self.initial_rate <= 0:
            raise ConfigError(
                f"initial_rate must be positive, got {self.initial_rate}"
            )


@dataclass(frozen=True, slots=True)
class RackSpec:
    """One rack's identity and hosted stages (picklable shard payload)."""

    rack_id: str
    #: Global rack index; seeds the rack's independent RNG stream.
    index: int
    #: ``(stage_id, job_id)`` pairs in global registration order.
    stages: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.rack_id:
            raise ConfigError("rack needs an id")
        if self.index < 0:
            raise ConfigError(f"rack index must be >= 0, got {self.index}")


class FluidRack:
    """A sealed per-rack fluid sub-world of token-bucketed stages.

    Per tick: each stage's offered load arrives into its backlog, the
    stage's token bucket grants ``min(backlog + arrivals, tokens)``, and
    the granted ops feed a rack-local MDS queue served at a fixed
    capacity.  Enforcement arrives between epochs as final per-stage
    job rates (already split by the global plane -- no re-association).
    """

    def __init__(
        self, spec: RackSpec, config: FluidConfig, vectorized: bool = True
    ) -> None:
        self.spec = spec
        self.config = config
        self.vectorized = bool(vectorized)
        self.rack_id = spec.rack_id
        n = len(spec.stages)
        self._n = n
        self._dt = config.dt
        self._inv_period = 1.0 / config.demand_period
        rng = make_rng(SeedSequence([config.seed, spec.index]))
        base_rate = float(config.clients_per_stage) * config.ops_per_client
        # Draw order is part of the rack's determinism contract: base
        # rates first, then phases, regardless of execution mode.
        self.base = base_rate * rng.lognormal(
            mean=0.0, sigma=config.demand_sigma, size=n
        )
        self.phase = rng.random(n)
        # Local job registry, in first-appearance (registration) order.
        self.job_ids: List[str] = []
        job_index: Dict[str, int] = {}
        job_of = np.empty(n, dtype=np.intp)
        for i, (_stage_id, job_id) in enumerate(spec.stages):
            idx = job_index.get(job_id)
            if idx is None:
                idx = len(self.job_ids)
                job_index[job_id] = idx
                self.job_ids.append(job_id)
            job_of[i] = idx
        self.job_of = job_of
        self._job_of_list = job_of.tolist()
        n_jobs = len(self.job_ids)
        self._n_jobs = n_jobs
        self._job_rate = np.full(n_jobs, config.initial_rate)
        self._job_burst = self._job_rate * config.burst_seconds
        self.rate = self._job_rate[job_of]
        self.burst_limit = self._job_burst[job_of]
        self.tokens = self.burst_limit.copy()
        self.backlog = np.zeros(n)
        self.window_enqueued = np.zeros(n)
        self.job_granted = np.zeros(n_jobs)
        self.mds_queue = 0.0
        self.capacity = config.mds_capacity_per_stage * n
        self.delivered_ops = 0.0
        self._served: List[float] = []

    # -- enforcement --------------------------------------------------------
    def apply_rate_arrays(
        self, mask: np.ndarray, rates: np.ndarray, bursts: np.ndarray
    ) -> None:
        """Install per-stage job rates pushed by the global plane.

        ``mask``/``rates``/``bursts`` are aligned to this rack's local job
        slots (registration order, the :class:`~repro.simulation.sharded.shm.
        ShardIndexMap` layout): slot ``k`` takes ``rates[k]`` where
        ``mask[k]``, and NaN in ``bursts`` means "derive the burst as
        ``rate * burst_seconds``".  The per-stage rebuild below only
        gathers through ``job_of`` -- fancy indexing never re-associates
        a float, so both execution modes share it.
        """
        if not mask.any():
            return
        sel_rates = rates[mask]
        sel_bursts = bursts[mask]
        derived = sel_rates * self.config.burst_seconds
        self._job_rate[mask] = sel_rates
        self._job_burst[mask] = np.where(np.isnan(sel_bursts), derived, sel_bursts)
        job_of = self.job_of
        self.rate = self._job_rate[job_of]
        self.burst_limit = self._job_burst[job_of]
        np.minimum(self.tokens, self.burst_limit, out=self.tokens)

    # -- per-tick advance ---------------------------------------------------
    def _offered(self, t: float) -> np.ndarray:
        """Offered load (ops/s) per stage at time ``t``.

        Always the full-array ``np.sin`` evaluation: NumPy's vectorised
        sine is not guaranteed ulp-identical to ``math.sin``, so both
        execution modes share this one implementation.
        """
        return self.base * (
            1.0
            + self.config.demand_amplitude
            * np.sin(TWO_PI * (t * self._inv_period + self.phase))
        )

    def tick(self, t: float) -> float:
        """Advance one ``dt``; returns ops served by the rack MDS."""
        if self._n == 0:
            self._served.append(0.0)
            return 0.0
        if self.vectorized:
            granted = self._tick_vectorized(t)
        else:
            granted = self._tick_scalar(t)
        # Rack-level reduction: same np.sum pairwise order in both modes,
        # over a shape fixed by the rack layout -- switching to _seq_sum
        # would change the committed golden digests for no safety gain.
        granted_sum = float(np.sum(granted))  # padll: allow(FLT001)
        queue = self.mds_queue + granted_sum
        served = queue if queue < self.capacity * self._dt else self.capacity * self._dt
        self.mds_queue = queue - served
        self.delivered_ops += served
        self._served.append(served)
        return served

    def _tick_vectorized(self, t: float) -> np.ndarray:
        dt = self._dt
        arrive = self._offered(t) * dt
        np.minimum(self.burst_limit, self.tokens + self.rate * dt, out=self.tokens)
        want = self.backlog + arrive
        granted = np.minimum(want, self.tokens)
        self.tokens -= granted
        self.backlog = want - granted
        self.window_enqueued += arrive
        self.job_granted += np.bincount(
            self.job_of, weights=granted, minlength=self._n_jobs
        )
        return granted

    def _tick_scalar(self, t: float) -> np.ndarray:
        """Per-stage Python loop: the single-engine reference arithmetic."""
        dt = self._dt
        offered = self._offered(t)
        n = self._n
        granted = np.empty(n)
        tokens = self.tokens
        rate = self.rate
        burst = self.burst_limit
        backlog = self.backlog
        enqueued = self.window_enqueued
        for i in range(n):
            arrive = offered[i] * dt
            tok = tokens[i] + rate[i] * dt
            cap = burst[i]
            if cap < tok:
                tok = cap
            want = backlog[i] + arrive
            g = want if want < tok else tok
            tokens[i] = tok - g
            backlog[i] = want - g
            enqueued[i] = enqueued[i] + arrive
            granted[i] = g
        # np.bincount adds weights sequentially in element order; this
        # loop replays that exact accumulation.
        tick_granted = np.zeros(self._n_jobs)
        job_of = self._job_of_list
        for i in range(n):
            idx = job_of[i]
            tick_granted[idx] = tick_granted[idx] + granted[i]
        self.job_granted += tick_granted
        return granted

    def run_epoch(self, t0: float, n_ticks: int) -> None:
        """Advance ``n_ticks`` fluid ticks starting at ``t0``."""
        dt = self._dt
        for k in range(n_ticks):
            self.tick(t0 + k * dt)

    # -- epoch-boundary reporting -------------------------------------------
    def demand_partials_array(self, loop_interval: float) -> np.ndarray:
        """Per-job demand partials as a float64 array, then reset.

        The per-stage expression is the hierarchy's exact one --
        ``enqueued/window + backlog/loop_interval`` -- accumulated per
        job in stage-registration order (``np.bincount`` element order
        == the scalar loop == ``LocalController._collect_aggregate``'s
        dict accumulation from 0.0).  The array is aligned to
        :attr:`job_ids`; the wire ships it verbatim and the static index
        map supplies ids and stage counts.
        """
        contrib = self.window_enqueued / loop_interval + self.backlog / loop_interval
        if self.vectorized:
            per_job = np.bincount(
                self.job_of, weights=contrib, minlength=self._n_jobs
            )
        else:
            per_job = np.zeros(self._n_jobs)
            job_of = self._job_of_list
            for i in range(self._n):
                idx = job_of[i]
                per_job[idx] = per_job[idx] + contrib[i]
        self.window_enqueued[:] = 0.0
        return per_job

    def served_series(self) -> np.ndarray:
        """Ops served by the rack MDS, one entry per tick."""
        return np.asarray(self._served, dtype=np.float64)

    def total_backlog(self) -> float:
        """Un-granted ops still queued at the rack's stages."""
        # backlog's shape is fixed by the rack layout, so the pairwise
        # order is identical on every tick and across shard counts.
        return float(np.sum(self.backlog)) + self.mds_queue  # padll: allow(FLT001)
