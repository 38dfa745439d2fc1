"""Closed-form fluid rack shards: the vectorised stage/bucket fast path.

At the scale the ROADMAP targets (10^4 stages, 10^6 simulated clients)
per-request discrete events are pointless work: within one engine tick
every hot-path update -- token-bucket refill and grant, backlog
carryover, the rack MDS queue -- is closed-form arithmetic over the
tick.  A :class:`FluidBlock` therefore keeps the stage population of a
whole block of racks (a shard) as one set of ``numpy`` arrays and
advances it per tick with a fixed elementwise expression sequence; only
the rack MDS queues, a handful of floats each, are walked rack by rack.

Bit-identity contract (asserted by ``tests/simulation/test_sharded.py``):

* ``vectorized=False`` runs the *same arithmetic* one stage at a time in
  a plain Python loop -- the reference the bit-identity tests compare
  the array path against; the engine itself always builds vectorised
  blocks.  Elementwise IEEE-754 adds/subs/mins are identical
  scalar-vs-vector by definition; the two places where evaluation
  strategy could reassociate floats are pinned to one implementation
  shared by both paths: the offered-load sine is always evaluated by
  ``np.sin`` over the full array (NumPy's SIMD kernels are not
  ulp-identical to ``math.sin``), and rack-level reductions always go
  through ``np.sum`` over the rack's contiguous per-stage slice (the
  pairwise order depends on the slice's length alone).  Per-job partial
  accumulation uses ``np.bincount``, whose sequential element-order
  adds equal the scalar loop's.
* A rack is a sealed sub-world: every draw comes from its own
  generator, seeded by ``(config.seed, rack index)``, no per-tick state
  crosses rack boundaries, and no elementwise or per-slot result depends
  on which other racks share the arrays -- which is what makes
  shard-count invariance (1 shard == N shards, a block == its racks one
  by one) structural rather than incidental.

Demand partials follow the hierarchy's exact per-stage expression
(``offered = enqueued/window``, ``drain = backlog/loop_interval``,
accumulated per job in stage-registration order), so the merged global
demand the :class:`~repro.core.controller.ControlPlane` sees
is the same signal a
:class:`~repro.core.hierarchy.LocalController` would have reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.rng import SeedSequence, make_rng
from repro.simulation.ticker import DT

__all__ = [
    "UNLIMITED", "FluidConfig", "RackSpec", "RackSlots", "RackFinal", "FluidBlock",
]

TWO_PI = 2.0 * math.pi

#: Channel rate meaning "no enforcement installed yet".
UNLIMITED = float("inf")


#: Relative swing of the sinusoidal demand modulation.
DEMAND_AMPLITUDE = 0.35
#: Period (seconds) of the demand modulation.
DEMAND_PERIOD = 300.0
#: Lognormal sigma of the per-stage base-rate draw.
DEMAND_SIGMA = 0.3
#: Rack MDS service capacity, per hosted stage (ops/s).
MDS_CAPACITY_PER_STAGE = 600.0
#: Token-bucket burst allowance, in seconds of the enforced rate.
BURST_SECONDS = 2.0
#: ``1 / DEMAND_PERIOD``, the factor the offered-load sine takes ``t`` by.
INV_PERIOD = 1.0 / DEMAND_PERIOD


@dataclass(frozen=True, slots=True)
class FluidConfig:
    """Workload knobs shared by every rack of one run.

    The offered load of stage ``s`` is a lognormal per-stage base rate
    (``clients_per_stage * ops_per_client`` scaled by a seeded draw)
    modulated by a deterministic sinusoid:
    ``base * (1 + DEMAND_AMPLITUDE * sin(2*pi*(t/DEMAND_PERIOD + phase_s)))``.
    Clients are modelled in aggregate -- each stage fronts
    ``clients_per_stage`` clients' metadata streams -- which is how a
    run reaches 10^6 simulated clients at 10^4 stages.  Every stage
    starts unthrottled (:data:`UNLIMITED`) until the first enforcement.
    """

    #: Mean metadata ops/s contributed by one client.
    ops_per_client: ClassVar[float] = 8.0

    seed: int = 0
    clients_per_stage: int = 100

    def __post_init__(self) -> None:
        if self.clients_per_stage < 1:
            raise ConfigError(
                f"clients_per_stage must be >= 1, got {self.clients_per_stage}"
            )


@dataclass(frozen=True, slots=True)
class RackSpec:
    """One rack's identity and hosted stages."""

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


class RackSlots(NamedTuple):
    """One rack's slots: one per job it hosts, in registration order."""

    job_ids: Tuple[str, ...]
    #: Half-open slot range, one slot per entry of ``job_ids``.
    slots: slice
    #: Stages each job has on the rack.
    stage_counts: Tuple[int, ...]


@dataclass(eq=False)
class RackFinal:
    """End-of-run snapshot of one rack."""

    rack_id: str
    served: np.ndarray
    job_ids: Tuple[str, ...]
    job_granted: np.ndarray
    delivered_ops: float
    backlog: float


class FluidBlock:
    """A contiguous block of sealed fluid racks, advanced as one array set.

    Per tick: each stage's offered load arrives into its backlog, the
    stage's token bucket grants ``min(backlog + arrivals, tokens)``, and
    the granted ops feed the stage's rack-local MDS queue, served at a
    fixed capacity.  Enforcement arrives as final per-stage job rates
    (already split by the global plane -- no re-association), written
    into the slot arrays by :meth:`set_rates` and gathered per stage at
    the start of the next epoch.  A tick writes into buffers allocated
    once per block.

    The per-stage arrays are the racks' arrays concatenated in rack
    order.  The block owns the slot layout: one slot per ``(rack, job)``,
    numbered rack by rack and, within a rack, in the jobs' first-appearance
    order (:attr:`layout`).  ``job_of`` holds each stage's slot, so a slot
    collects only its own rack's stages, in registration order.
    """

    def __init__(
        self, specs: Sequence[RackSpec], config: FluidConfig, vectorized: bool = True
    ) -> None:
        self.config = config
        self.vectorized = bool(vectorized)
        self.rack_ids = tuple(spec.rack_id for spec in specs)
        base_rate = float(config.clients_per_stage) * config.ops_per_client
        bases: List[np.ndarray] = []
        phases: List[np.ndarray] = []
        #: Per rack, its half-open stage range in the block.
        self._bounds: List[Tuple[int, int]] = []
        rack_slots: List[Tuple[Tuple[str, ...], slice]] = []
        #: Per rack, what its MDS can serve in one tick.
        self._tick_capacity: List[float] = []
        job_of: List[int] = []
        n_slots = 0
        for spec in specs:
            n = len(spec.stages)
            # Draw order is part of the rack's determinism contract: its
            # own generator, base rates first, then phases, regardless of
            # execution mode or of which racks share the block.
            rng = make_rng(SeedSequence([config.seed, spec.index]))
            bases.append(rng.lognormal(mean=0.0, sigma=DEMAND_SIGMA, size=n))
            phases.append(rng.random(n))
            self._tick_capacity.append(MDS_CAPACITY_PER_STAGE * n * DT)
            slots: Dict[str, int] = {}
            for _stage_id, job_id in spec.stages:
                slot = slots.get(job_id)
                if slot is None:
                    slot = slots[job_id] = n_slots + len(slots)
                job_of.append(slot)
            self._bounds.append((len(job_of) - n, len(job_of)))
            rack_slots.append((tuple(slots), slice(n_slots, n_slots + len(slots))))
            n_slots += len(slots)
        self.base = base_rate * np.concatenate(bases)
        self.phase = np.concatenate(phases)
        self.job_of = np.array(job_of, dtype=np.intp)
        self._job_of_list = job_of
        self.n_slots = n_slots
        stage_counts = np.bincount(self.job_of, minlength=n_slots).tolist()
        #: Per rack, in rack order, its slots in this block.
        self.layout: Tuple[RackSlots, ...] = tuple(
            RackSlots(job_ids, slots, tuple(stage_counts[slots]))
            for job_ids, slots in rack_slots
        )
        #: Per-slot enforced rate and burst, written by :meth:`set_rates`.
        self._job_rate = np.full(n_slots, UNLIMITED)
        self._job_burst = self._job_rate * BURST_SECONDS
        #: Whether a rate landed in the slot arrays since the last epoch.
        self._pushed = False
        self.rate = self._job_rate[self.job_of]
        self.burst_limit = self._job_burst[self.job_of]
        self.tokens = self.burst_limit.copy()
        self.backlog = np.zeros(len(job_of))
        self.window_enqueued = np.zeros(len(job_of))
        # Per-tick buffers: the offered load (then the arrivals), the
        # wanted ops, and the token refill (then the granted ops).
        n = len(job_of)
        self._offered_buf = np.empty(n)
        self._want = np.empty(n)
        self._scratch = np.empty(n)
        #: Ops granted so far, per slot.
        self.job_granted = np.zeros(n_slots)
        # The rest of the genuinely per-rack state: each MDS queue, what
        # it delivered, and its served series.
        self._mds_queue = [0.0] * len(specs)
        self._delivered = [0.0] * len(specs)
        self._served: List[List[float]] = [[] for _ in specs]

    # -- enforcement --------------------------------------------------------
    def set_rates(self, slots, rates, bursts=None) -> None:
        """Write per-stage job rates pushed by the global plane.

        ``slots`` (one slot or an index array of this block's slots)
        take ``rates`` and ``bursts``, or bursts derived as ``rate *
        BURST_SECONDS`` now, so the later of two pushes to a slot wins,
        burst and all.  The stages see them from the next
        :meth:`run_epoch`.
        """
        self._job_rate[slots] = rates
        self._job_burst[slots] = rates * BURST_SECONDS if bursts is None else bursts
        self._pushed = True

    # -- per-tick advance ---------------------------------------------------
    def _offered(self, t: float) -> np.ndarray:
        """Offered load (ops/s) per stage at time ``t``, in a block buffer.

        ``base * (1 + DEMAND_AMPLITUDE * sin(TWO_PI * (t * INV_PERIOD +
        phase)))``, one ufunc per operation in that order.  Always the
        full-array ``np.sin`` evaluation: NumPy's vectorised sine is not
        guaranteed ulp-identical to ``math.sin``, so both execution modes
        share this one implementation.
        """
        out = self._offered_buf
        np.add(self.phase, t * INV_PERIOD, out=out)
        np.multiply(out, TWO_PI, out=out)
        np.sin(out, out=out)
        np.multiply(out, DEMAND_AMPLITUDE, out=out)
        np.add(out, 1.0, out=out)
        np.multiply(self.base, out, out=out)
        return out

    def tick(self, t: float) -> None:
        """Advance one ``DT``: every stage at once, then each rack's MDS."""
        if self.vectorized:
            granted = self._tick_vectorized(t)
        else:
            granted = self._tick_scalar(t)
        mds_queue = self._mds_queue
        delivered = self._delivered
        for r, (lo, hi) in enumerate(self._bounds):
            # Rack-level reduction over a contiguous slice: the same pairwise
            # order in both modes and at every shard count, over a shape
            # fixed by the rack layout -- switching to _seq_sum would change
            # the committed golden digests for no safety gain.  ``.sum()``
            # without the Python frame of numpy's wrapper (same bits).
            queue = mds_queue[r] + float(np.add.reduce(granted[lo:hi]))  # padll: allow(FLT001)
            capacity = self._tick_capacity[r]
            served = queue if queue < capacity else capacity
            mds_queue[r] = queue - served
            delivered[r] += served
            self._served[r].append(served)

    def _tick_vectorized(self, t: float) -> np.ndarray:
        dt = DT
        tokens = self.tokens
        arrive = self._offered(t)
        np.multiply(arrive, dt, out=arrive)
        refill = np.multiply(self.rate, dt, out=self._scratch)
        np.add(tokens, refill, out=refill)
        np.minimum(self.burst_limit, refill, out=tokens)
        want = np.add(self.backlog, arrive, out=self._want)
        granted = np.minimum(want, tokens, out=self._scratch)
        np.subtract(tokens, granted, out=tokens)
        np.subtract(want, granted, out=self.backlog)
        np.add(self.window_enqueued, arrive, out=self.window_enqueued)
        self.job_granted += np.bincount(
            self.job_of, weights=granted, minlength=self.n_slots
        )
        return granted

    def _tick_scalar(self, t: float) -> np.ndarray:
        """Per-stage Python loop: the single-engine reference arithmetic."""
        dt = DT
        offered = self._offered(t)
        n = len(offered)
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
        tick_granted = np.zeros(self.n_slots)
        job_of = self._job_of_list
        for i in range(n):
            idx = job_of[i]
            tick_granted[idx] = tick_granted[idx] + granted[i]
        self.job_granted += tick_granted
        return granted

    def run_epoch(self, t0: float, n_ticks: int) -> None:
        """Land the rates pushed since the last epoch, then advance
        ``n_ticks`` fluid ticks starting at ``t0``.

        Landing gathers the slot rates per stage through ``job_of`` --
        fancy indexing never re-associates a float, so both execution
        modes share it -- and clamps the tokens to the new bursts, the
        identity on a stage whose slot kept its burst.
        """
        if self._pushed:
            self._job_rate.take(self.job_of, out=self.rate)
            self._job_burst.take(self.job_of, out=self.burst_limit)
            np.minimum(self.tokens, self.burst_limit, out=self.tokens)
            self._pushed = False
        for k in range(n_ticks):
            self.tick(t0 + k * DT)

    # -- epoch-boundary reporting -------------------------------------------
    def demand_partials_array(self, loop_interval: float) -> np.ndarray:
        """Per-slot demand partials as a float64 array, then reset.

        The per-stage expression is the hierarchy's exact one --
        ``enqueued/window + backlog/loop_interval`` -- accumulated per
        job in stage-registration order (``np.bincount`` element order
        == the scalar loop == ``LocalController._collect_aggregate``'s
        dict accumulation from 0.0).  The array is aligned to the
        block's slots; the pool places it verbatim in its slot slice and
        :attr:`layout` supplies ids and stage counts.
        """
        contrib = self.window_enqueued / loop_interval + self.backlog / loop_interval
        if self.vectorized:
            per_slot = np.bincount(
                self.job_of, weights=contrib, minlength=self.n_slots
            )
        else:
            per_slot = np.zeros(self.n_slots)
            job_of = self._job_of_list
            for i in range(len(contrib)):
                idx = job_of[i]
                per_slot[idx] = per_slot[idx] + contrib[i]
        self.window_enqueued[:] = 0.0
        return per_slot

    def finals(self) -> List[RackFinal]:
        """Every rack's end-of-run snapshot, in rack order."""
        finals = []
        for r, ((lo, hi), rack) in enumerate(zip(self._bounds, self.layout)):
            # backlog's shape is fixed by the rack layout, so the pairwise
            # order is identical on every tick and across shard counts.
            backlog = float(self.backlog[lo:hi].sum())  # padll: allow(FLT001)
            finals.append(
                RackFinal(
                    rack_id=self.rack_ids[r],
                    served=np.asarray(self._served[r], dtype=np.float64),
                    job_ids=rack.job_ids,
                    job_granted=self.job_granted[rack.slots].copy(),
                    delivered_ops=self._delivered[r],
                    backlog=backlog + self._mds_queue[r],
                )
            )
        return finals
