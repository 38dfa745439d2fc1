"""Lint configuration: defaults plus the ``[tool.padll-lint]`` table.

:data:`DEFAULT_CONFIG` is the one source of this repository's lint
settings.  A project overrides them key by key in a
``[tool.padll-lint]`` table of its ``pyproject.toml`` (read with
``tomllib``, Python 3.11+; on 3.10 the table is ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

try:  # pragma: no cover - exercised implicitly on 3.11+
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10
    tomllib = None  # type: ignore[assignment]

from repro.errors import ConfigError

__all__ = ["DEFAULT_CONFIG", "LintConfig", "load_config", "find_pyproject"]


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Everything the engine and rules need to know about the project."""

    #: Directories (or files) scanned when the CLI gets no explicit paths.
    paths: Tuple[str, ...] = ("src/repro",)
    #: Roots stripped from file paths to derive dotted module names.
    src_roots: Tuple[str, ...] = ("src",)
    #: Module prefixes where simulated time must come from the engine and
    #: randomness from threaded Generators (DET001/DET004 scope).
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
    #: Path substrings to skip entirely.
    exclude: Tuple[str, ...] = ()
    #: Rule ids disabled project-wide.
    disable: Tuple[str, ...] = ()
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

_KEYS = {
    "paths": "paths",
    "src-roots": "src_roots",
    "deterministic-layers": "deterministic_layers",
    "interpose-layers": "interpose_layers",
    "exclude": "exclude",
    "disable": "disable",
}


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.padll-lint]``; missing file/table/tomllib -> defaults."""
    if pyproject is None:
        pyproject = find_pyproject()
    if pyproject is None:
        return DEFAULT_CONFIG
    pyproject = Path(pyproject)
    config = replace(DEFAULT_CONFIG, root=str(pyproject.parent))
    if tomllib is None:  # Python 3.10
        return config
    try:
        with open(pyproject, "rb") as fh:
            doc = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"cannot read {pyproject}: {exc}") from None
    table = doc.get("tool", {}).get("padll-lint", {})
    if not isinstance(table, dict):
        raise ConfigError("[tool.padll-lint] must be a table")
    updates = {}
    for key, value in table.items():
        attr = _KEYS.get(key)
        if attr is None:
            raise ConfigError(f"unknown [tool.padll-lint] key: {key!r}")
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ConfigError(f"[tool.padll-lint] {key} must be a list of strings")
        updates[attr] = tuple(value)
    return replace(config, **updates)
