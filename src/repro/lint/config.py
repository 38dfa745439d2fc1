"""Lint configuration: the project's layout, as code defaults.

:data:`DEFAULT_CONFIG` is the one source of this repository's lint
settings; nothing reads them from a file.  :func:`load_config` only
anchors the relative ``paths`` at the project root, so
``padll-repro lint`` works from any directory inside the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["DEFAULT_CONFIG", "LintConfig", "load_config"]


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Everything the engine and rules need to know about the project."""

    #: Directories (or files) scanned when the CLI gets no explicit paths.
    paths: Tuple[str, ...] = ("src/repro",)
    #: Roots stripped from file paths to derive dotted module names.
    src_roots: Tuple[str, ...] = ("src",)
    #: Module prefixes where simulated time must come from the engine and
    #: randomness from threaded Generators (DET001/DET004/DET006/FLT001
    #: scope).
    deterministic_layers: Tuple[str, ...] = (
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
    interpose_layers: Tuple[str, ...] = ("repro.interpose",)
    #: Directory the relative entries above resolve against.
    root: str = "."

    def resolve(self, relative: str) -> Path:
        return Path(self.root) / relative

    def module_for(self, path: Path) -> str:
        """Dotted module name for ``path`` given the configured src roots."""
        parts = Path(path).with_suffix("").parts
        for root in self.src_roots:
            root_parts = Path(root).parts
            for i in range(len(parts) - len(root_parts) + 1):
                if parts[i : i + len(root_parts)] == root_parts:
                    module_parts = parts[i + len(root_parts) :]
                    if module_parts:
                        return ".".join(_strip_init(module_parts))
        return ".".join(_strip_init(parts[-2:] if len(parts) > 1 else parts))

    def in_layer(self, module: str, layers: Tuple[str, ...]) -> bool:
        return any(
            module == layer or module.startswith(layer + ".") for layer in layers
        )


def _strip_init(parts: Tuple[str, ...]) -> Tuple[str, ...]:
    return parts[:-1] if parts and parts[-1] == "__init__" else parts


DEFAULT_CONFIG = LintConfig()


def load_config(start: Optional[Path] = None) -> LintConfig:
    """:data:`DEFAULT_CONFIG` rooted at the project: the nearest directory
    at or above ``start`` (default: the working directory) that holds a
    ``pyproject.toml``, or the working directory when none does."""
    here = Path(start or Path.cwd()).absolute()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return replace(DEFAULT_CONFIG, root=str(candidate))
    return DEFAULT_CONFIG
