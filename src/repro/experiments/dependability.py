"""Control-plane dependability under a faulty RPC fabric.

The paper's section VI leaves the control plane's own dependability as
future work: what happens to enforcement when the feedback loop's RPCs
are lost, delayed, or partitioned away?  This experiment quantifies it.
One fault *axis* at a time (message loss probability, link latency, or a
scripted full partition window), one control-plane *mode* at a time
(``flat`` talks to every stage; ``hier`` talks to per-rack local
controllers hosting whole jobs; ``hier-split`` gives every job two
stages placed on *different* racks, so the global tier merges partial
per-job demands while links fail), each faulty run is compared against
the same mode's fault-free reference run:

* **mean_abs_error** -- mean |enforced - reference| over every (cycle,
  job) pair, using last-enforced-rate semantics (what the data plane
  actually runs at between pushes);
* **violation_fraction** -- fraction of (cycle, job) pairs whose
  enforced rate deviates more than 5% from the reference;
* **settling_time** -- earliest time from which every job's rate stays
  within 5% of the reference run's final allocation (the fault-free
  fixed point); ``duration`` means it never settled;
* **floor_rate** -- for partition runs, the lowest per-stage rate
  observed just before the partition heals: with the decay orphan
  policy, stages cut off from the controller converge toward the safe
  floor instead of holding a stale allocation forever.

Every run is seeded end to end (trace, fabric, controller jitter), so
each point is bit-reproducible and cacheable by the sweep runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.core.algorithms import ProportionalSharing
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.stage import OrphanPolicy
from repro.experiments.harness import JobSpec, ReplayWorld, Setup
from repro.workloads.abci import generate_mdt_trace

__all__ = [
    "DependabilityPoint",
    "FAULT_AXES",
    "MODES",
    "run_dependability",
    "main",
]

N_JOBS = 4
MODES = ("flat", "hier", "hier-split")
#: axis -> default fault levels (level 0 doubles as the reference run).
FAULT_AXES: Dict[str, Tuple[float, ...]] = {
    "loss": (0.0, 0.1, 0.3, 0.6),
    "latency": (0.0, 0.2, 1.0, 3.0),
    "partition": (0.0, 15.0, 60.0),
}
#: Partition windows start at this fraction of the run.
PARTITION_START_FRAC = 0.4
#: Relative deviation below which an enforced rate counts as matching.
TOLERANCE = 0.05
ORPHAN_POLICY = OrphanPolicy(orphan_after=3, mode="decay", floor=50.0, half_life=5.0)


@dataclass(frozen=True, slots=True)
class DependabilityPoint:
    """One (axis, level, mode) dependability measurement."""

    axis: str
    level: float
    mode: str
    mean_abs_error: float
    violation_fraction: float
    settling_time: float
    delivered_ops: float
    collect_timeouts: int
    orphan_transitions: int
    #: Min per-stage algorithm-channel rate just before the partition
    #: heals (None when the run has no partition window).
    floor_rate: Optional[float]


def _build_world(
    mode: str,
    seed: int,
    duration: float,
    cap: float,
    link: LinkProfile,
    partition: Optional[Tuple[float, float]],
    holder: Dict[str, object],
) -> ReplayWorld:
    def fabric_factory(env):
        fabric = FaultyFabric(env=env, link=link, seed=seed)
        if partition is not None:
            fabric.partition(partition[0], partition[1])
        holder["fabric"] = fabric
        return fabric

    world = ReplayWorld(
        Setup.PADLL,
        sample_period=1.0,
        algorithm=ProportionalSharing(cap),
        # An engine-attached fabric defers collects, so the plane runs its
        # sessions: deadlines, retries and staleness in loop intervals.
        fabric_factory=fabric_factory,
        hierarchical=(mode != "flat"),
        placement="split" if mode == "hier-split" else "job",
        orphan_policy=ORPHAN_POLICY,
    )
    trace = generate_mdt_trace(seed=seed, duration=duration * 60.0)
    # hier-split: two stages per job on different racks, so every job's
    # demand reaches the global tier as partials that must be merged.
    n_stages = 2 if mode == "hier-split" else 1
    for i in range(N_JOBS):
        world.add_job(
            JobSpec(
                job_id=f"job{i + 1}",
                trace=trace,
                setup=Setup.PADLL,
                channel_mode="per-class",
                # Heterogeneous demand so the fault-free allocation is
                # job-specific (an equal split would mask signal loss).
                rate_scale=0.3 + 0.15 * i,
                initial_rate=cap / N_JOBS,
                n_stages=n_stages,
            )
        )
    if partition is not None:
        # Sample the decayed per-stage rates just before the heal.
        def sample_floor():
            rates = [
                stage.channel_rate("metadata")
                for runtime in world._jobs.values()
                for stage in runtime.stages
            ]
            if rates:
                holder["floor_rate"] = min(rates)

        world.env.call_at(max(0.0, partition[1] - 1.0), sample_floor)
    return world


def _rate_timeline(
    log: Sequence[Tuple[float, str, float]], duration: float, jobs: Sequence[str]
) -> Dict[str, List[Optional[float]]]:
    """Per-job last-enforced rate at each whole-second cycle boundary."""
    ticks = int(duration)
    timeline: Dict[str, List[Optional[float]]] = {
        job: [None] * ticks for job in jobs
    }
    last: Dict[str, Optional[float]] = {job: None for job in jobs}
    index = 0
    entries = list(log)
    for t in range(ticks):
        while index < len(entries) and entries[index][0] <= t:
            _, job, rate = entries[index]
            if job in last:
                last[job] = rate
            index += 1
        for job in jobs:
            timeline[job][t] = last[job]
    return timeline


def _compare(
    reference: Dict[str, List[Optional[float]]],
    faulty: Dict[str, List[Optional[float]]],
    duration: float,
) -> Tuple[float, float, float]:
    """(mean_abs_error, violation_fraction, settling_time)."""
    errors: List[float] = []
    violations = 0
    compared = 0
    for job, ref_series in reference.items():
        faulty_series = faulty[job]
        for ref, got in zip(ref_series, faulty_series):
            if ref is None:
                continue
            compared += 1
            err = ref if got is None else abs(got - ref)
            errors.append(err)
            if err > TOLERANCE * ref:
                violations += 1
    mean_abs_error = sum(errors) / len(errors) if errors else 0.0
    violation_fraction = violations / compared if compared else 0.0
    # Settle against the fault-free fixed point: the reference run's
    # final rates.
    finals = {
        job: series[-1]
        for job, series in reference.items()
        if series and series[-1] is not None
    }
    settling = duration
    ticks = int(duration)
    for t in range(ticks - 1, -1, -1):
        ok = True
        for job, final in finals.items():
            got = faulty[job][t]
            if got is None or abs(got - final) > TOLERANCE * final:
                ok = False
                break
        if not ok:
            break
        settling = float(t)
    return mean_abs_error, violation_fraction, settling


def run_dependability(
    axis: str = "loss",
    mode: str = "flat",
    levels: Optional[Sequence[float]] = None,
    seed: int = 0,
    duration: float = 240.0,
    cap: float = 150e3,
) -> List[DependabilityPoint]:
    """Sweep one fault axis for one control-plane mode.

    Level 0 (always run first, prepended if absent) is the fault-free
    reference every other level is scored against.
    """
    if axis not in FAULT_AXES:
        raise ConfigError(f"unknown fault axis {axis!r}; known: {sorted(FAULT_AXES)}")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; known: {MODES}")
    levels = tuple(levels) if levels is not None else FAULT_AXES[axis]
    if not levels or levels[0] != 0.0:
        levels = (0.0,) + tuple(levels)

    jobs = [f"job{i + 1}" for i in range(N_JOBS)]
    points: List[DependabilityPoint] = []
    reference: Optional[Dict[str, List[Optional[float]]]] = None
    for level in levels:
        link = LinkProfile()
        partition = None
        if axis == "loss":
            link = LinkProfile(loss=level)
        elif axis == "latency":
            link = LinkProfile(latency=level, jitter=level * 0.1)
        elif level > 0.0:
            start = duration * PARTITION_START_FRAC
            partition = (start, start + level)
        holder: Dict[str, object] = {}
        world = _build_world(mode, seed, duration, cap, link, partition, holder)
        result = world.run(duration)
        timeline = _rate_timeline(result.enforcement_log, duration, jobs)
        if reference is None:
            reference = timeline
        mean_abs_error, violation_fraction, settling = _compare(
            reference, timeline, duration
        )
        controller = world.controller
        orphans = sum(
            stage.orphan_transitions
            for runtime in world._jobs.values()
            for stage in runtime.stages
        )
        points.append(
            DependabilityPoint(
                axis=axis,
                level=level,
                mode=mode,
                mean_abs_error=mean_abs_error,
                violation_fraction=violation_fraction,
                settling_time=settling,
                delivered_ops=sum(
                    job.delivered_ops for job in result.jobs.values()
                ),
                collect_timeouts=controller.collect_timeouts,
                orphan_transitions=orphans,
                floor_rate=holder.get("floor_rate"),
            )
        )
    return points


def main(
    seed: int = 0, duration: float = 240.0
) -> Dict[str, List[DependabilityPoint]]:
    """Run every axis for both modes and print a comparison table."""
    results: Dict[str, List[DependabilityPoint]] = {}
    for axis in FAULT_AXES:
        for mode in MODES:
            points = run_dependability(
                axis=axis, mode=mode, seed=seed, duration=duration
            )
            results[f"{axis}-{mode}"] = points
            for p in points:
                floor = (
                    f"  floor {p.floor_rate:8.1f}"
                    if p.floor_rate is not None
                    else ""
                )
                print(
                    f"{p.axis:>9} {p.level:6.2f} [{p.mode}]  "
                    f"err {p.mean_abs_error:9.1f}  "
                    f"viol {p.violation_fraction * 100:5.1f}%  "
                    f"settle {p.settling_time:6.1f}s  "
                    f"timeouts {p.collect_timeouts:4d}  "
                    f"orphans {p.orphan_transitions:2d}{floor}"
                )
    return results
