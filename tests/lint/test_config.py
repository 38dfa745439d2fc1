"""Project-root anchoring and module-name mapping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.lint import LintConfig, load_config
from repro.lint.config import DETERMINISTIC_LAYERS, in_layer, module_for


class TestModuleMapping:
    def test_maps_under_src_root(self):
        assert (
            module_for(Path("src/repro/simulation/engine.py"))
            == "repro.simulation.engine"
        )

    def test_maps_absolute_path(self):
        path = Path("/checkout/src/repro/pfs/mds.py")
        assert module_for(path) == "repro.pfs.mds"

    def test_package_init_maps_to_package(self):
        assert module_for(Path("src/repro/core/__init__.py")) == "repro.core"

    def test_layer_membership_is_prefix_based(self):
        assert in_layer("repro.core.stage", DETERMINISTIC_LAYERS)
        assert in_layer("repro.core", DETERMINISTIC_LAYERS)
        # 'repro.corex' must not match the 'repro.core' prefix.
        assert not in_layer("repro.corex", DETERMINISTIC_LAYERS)
        assert not in_layer("repro.analysis.plots", DETERMINISTIC_LAYERS)

    def test_sharded_engine_is_an_explicit_deterministic_layer(self):
        # The sharded engine must stay deterministic even if the parent
        # 'repro.simulation' prefix is ever narrowed: require the explicit
        # entry, not just prefix inheritance.
        assert "repro.simulation.sharded" in DETERMINISTIC_LAYERS
        assert in_layer("repro.simulation.sharded.fluid", DETERMINISTIC_LAYERS)
        assert in_layer("repro.simulation.sharded.coordinator", DETERMINISTIC_LAYERS)


class TestLoadConfig:
    def test_missing_table_gives_defaults(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[project]\nname = "x"\nversion = "0"\n')
        config = load_config(pyproject)
        assert config == LintConfig(root=str(tmp_path))

    def test_root_is_the_nearest_pyproject_directory(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.padll-lint]\npaths = []\n")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        config = load_config(nested)
        assert config.root == str(tmp_path)
        # The table is not read: every other setting is the code default.
        assert config == LintConfig(root=config.root)

    def test_nonexistent_path_rejected(self, tmp_path):
        from repro.lint import lint_paths

        with pytest.raises(ConfigError, match="does not exist"):
            lint_paths([tmp_path / "ghost"], LintConfig(root=str(tmp_path)))
