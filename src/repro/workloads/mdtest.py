"""mdtest-style metadata benchmark over the simulated PFS.

mdtest is the standard HPC metadata benchmark: it builds a directory
tree, then runs timed phases (directory creation, file creation, file
stat, file read, file removal, directory removal) with N processes, and
reports per-phase operation rates.  This module reproduces that tool
against the per-request :class:`~repro.pfs.discrete.DiscreteMDS` --
closed-loop, with real queueing and lock contention -- so the classic
mdtest summary table can be produced for any simulated server, with or
without PADLL throttling in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.pfs.discrete import DiscreteMDS
from repro.simulation.engine import Environment

__all__ = ["MDTestConfig", "MDTestWorkload", "MDTestResult", "run_mdtest"]

#: The classic mdtest phases, in execution order: (name, MDS op kind).
PHASES: Tuple[Tuple[str, str], ...] = (
    ("dir_create", "mkdir"),
    ("file_create", "mknod"),
    ("file_stat", "getattr"),
    ("file_remove", "unlink"),
    ("dir_remove", "rmdir"),
)


@dataclass(slots=True)
class MDTestConfig:
    """mdtest parameters (the usual -n / -i / branching knobs)."""

    #: Files per process per directory (-n).
    files_per_proc: int = 100
    n_procs: int = 8
    #: Directories per process.
    dirs_per_proc: int = 4
    root: str = "/mdtest"

    def __post_init__(self) -> None:
        if self.files_per_proc < 1:
            raise ConfigError("files_per_proc must be >= 1")
        if self.n_procs < 1:
            raise ConfigError("n_procs must be >= 1")
        if self.dirs_per_proc < 1:
            raise ConfigError("dirs_per_proc must be >= 1")

    @property
    def total_dirs(self) -> int:
        return self.n_procs * self.dirs_per_proc

    @property
    def total_files(self) -> int:
        return self.n_procs * self.dirs_per_proc * self.files_per_proc


class MDTestWorkload:
    """Generates each phase's operation stream, per process."""

    def __init__(self, config: MDTestConfig) -> None:
        self.config = config

    def dir_path(self, proc: int, d: int) -> str:
        return f"{self.config.root}/p{proc}/d{d}"

    def file_path(self, proc: int, d: int, i: int) -> str:
        return f"{self.dir_path(proc, d)}/f{i}"

    def phase_ops(self, phase: str, proc: int) -> Iterator[str]:
        """Paths one process touches during ``phase`` (in order)."""
        config = self.config
        if phase in ("dir_create", "dir_remove"):
            for d in range(config.dirs_per_proc):
                yield self.dir_path(proc, d)
        elif phase in ("file_create", "file_stat", "file_remove"):
            for d in range(config.dirs_per_proc):
                for i in range(config.files_per_proc):
                    yield self.file_path(proc, d, i)
        else:
            raise ConfigError(f"unknown mdtest phase {phase!r}")

    def phase_total(self, phase: str) -> int:
        if phase in ("dir_create", "dir_remove"):
            return self.config.total_dirs
        return self.config.total_files


@dataclass(frozen=True, slots=True)
class MDTestResult:
    """The classic mdtest summary: per-phase rates."""

    #: phase name -> (operations, elapsed seconds, ops/s).
    phases: Mapping[str, Tuple[int, float, float]]

    def rate(self, phase: str) -> float:
        return self.phases[phase][2]

    def summary_lines(self) -> List[str]:
        lines = [f"{'phase':<14} {'ops':>8} {'seconds':>9} {'ops/sec':>10}"]
        for name, (ops, secs, rate) in self.phases.items():
            lines.append(f"{name:<14} {ops:>8} {secs:>9.3f} {rate:>10.1f}")
        return lines


def run_mdtest(
    env: Environment,
    mds: DiscreteMDS,
    config: Optional[MDTestConfig] = None,
    throttle: Optional[Callable[[str, str], object]] = None,
) -> MDTestResult:
    """Run the full mdtest phase sequence; returns per-phase rates.

    ``throttle(kind, path)``, when given, is awaited before each
    operation is issued (a PADLL admission hook): it must return an event
    the per-process generator can yield on -- e.g. a simulated token
    grant.  The run is closed-loop: each of ``n_procs`` worker processes
    issues its next operation when the previous one completes, exactly
    like mdtest's MPI ranks.
    """
    config = config or MDTestConfig()
    workload = MDTestWorkload(config)
    results: Dict[str, Tuple[int, float, float]] = {}

    def worker(phase: str, kind: str, proc: int):
        for path in workload.phase_ops(phase, proc):
            if throttle is not None:
                gate = throttle(kind, path)
                if gate is not None:
                    yield gate
            yield mds.submit(kind, path)

    def phase_runner():
        for phase, kind in PHASES:
            start = env.now
            procs = [
                env.process(worker(phase, kind, p), name=f"mdtest-{phase}-{p}")
                for p in range(config.n_procs)
            ]
            yield env.all_of(procs)
            elapsed = env.now - start
            ops = workload.phase_total(phase)
            rate = ops / elapsed if elapsed > 0 else float("inf")
            results[phase] = (ops, elapsed, rate)

    done = env.process(phase_runner(), name="mdtest")
    env.run()
    if not done.processed or not done.ok:
        raise ConfigError("mdtest did not run to completion")
    return MDTestResult(phases=dict(results))
