"""Lint configuration: the project's layout, as module constants.

The constants below are the one source of this repository's lint
settings; nothing reads them from a file.  :class:`LintConfig` holds
only where the project is: :func:`load_config` anchors the relative
:data:`PATHS` at the project root, so ``padll-repro lint`` works from
any directory inside the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["LintConfig", "in_layer", "load_config", "module_for"]


#: Directories (or files) scanned when the CLI gets no explicit paths.
PATHS: Tuple[str, ...] = ("src/repro",)
#: Roots stripped from file paths to derive dotted module names.
SRC_ROOTS: Tuple[str, ...] = ("src",)
#: Module prefixes where simulated time must come from the engine and
#: randomness from threaded Generators (DET001/DET004/DET006/FLT001 scope).
DETERMINISTIC_LAYERS: Tuple[str, ...] = (
    "repro.simulation",
    # Covered by the 'repro.simulation' prefix already, but the sharded
    # engine is listed explicitly: a wall-clock or unthreaded-RNG leak
    # there would silently break the 1-shard == N-shard bit-identity
    # contract, so the entry must survive any future narrowing of the
    # parent prefix.
    "repro.simulation.sharded",
    "repro.pfs",
    "repro.core",
    "repro.experiments",
    "repro.workloads",
    "repro.runner",
    "repro.telemetry",
    # The operator service is a wall-clock program (servers sleep,
    # loops tick in real time) -- EXCEPT its snapshot builders, which
    # must be pure functions of their inputs so /api/v1/snapshot is
    # reproducible and testable without a running server.  Only that
    # module joins the deterministic layer.
    "repro.service.snapshot",
)
#: Module prefixes holding the LD_PRELOAD-analogue shim (INT001 scope).
INTERPOSE_LAYERS: Tuple[str, ...] = ("repro.interpose",)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Where the project is: the directory :data:`PATHS` resolve against
    and reported paths are relative to."""

    root: str = "."

    def resolve(self, relative: str) -> Path:
        return Path(self.root) / relative


def module_for(path: Path) -> str:
    """Dotted module name for ``path`` given :data:`SRC_ROOTS`."""
    parts = Path(path).with_suffix("").parts
    for root in SRC_ROOTS:
        root_parts = Path(root).parts
        for i in range(len(parts) - len(root_parts) + 1):
            if parts[i : i + len(root_parts)] == root_parts:
                module_parts = parts[i + len(root_parts) :]
                if module_parts:
                    return ".".join(_strip_init(module_parts))
    return ".".join(_strip_init(parts[-2:] if len(parts) > 1 else parts))


def in_layer(module: str, layers: Tuple[str, ...]) -> bool:
    return any(module == layer or module.startswith(layer + ".") for layer in layers)


def _strip_init(parts: Tuple[str, ...]) -> Tuple[str, ...]:
    return parts[:-1] if parts and parts[-1] == "__init__" else parts


def load_config(start: Optional[Path] = None) -> LintConfig:
    """A :class:`LintConfig` rooted at the project: the nearest directory
    at or above ``start`` (default: the working directory) that holds a
    ``pyproject.toml``, or the working directory when none does."""
    here = Path(start or Path.cwd()).absolute()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return LintConfig(root=str(candidate))
    return LintConfig()
