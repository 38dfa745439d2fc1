"""Configuration loading and module-name mapping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.lint import DEFAULT_CONFIG, LintConfig, load_config


class TestModuleMapping:
    def test_maps_under_src_root(self):
        config = LintConfig()
        assert (
            config.module_for(Path("src/repro/simulation/engine.py"))
            == "repro.simulation.engine"
        )

    def test_maps_absolute_path(self):
        config = LintConfig()
        path = Path("/checkout/src/repro/pfs/mds.py")
        assert config.module_for(path) == "repro.pfs.mds"

    def test_package_init_maps_to_package(self):
        config = LintConfig()
        assert config.module_for(Path("src/repro/core/__init__.py")) == "repro.core"

    def test_layer_membership_is_prefix_based(self):
        config = LintConfig()
        assert config.in_layer("repro.core.stage", config.deterministic_layers)
        assert config.in_layer("repro.core", config.deterministic_layers)
        # 'repro.corex' must not match the 'repro.core' prefix.
        assert not config.in_layer("repro.corex", config.deterministic_layers)
        assert not config.in_layer("repro.analysis.plots", config.deterministic_layers)

    def test_sharded_engine_is_an_explicit_deterministic_layer(self):
        # The sharded engine must stay deterministic even if the parent
        # 'repro.simulation' prefix is ever narrowed: require the explicit
        # entry, not just prefix inheritance.
        config = LintConfig()
        assert "repro.simulation.sharded" in config.deterministic_layers
        assert config.in_layer(
            "repro.simulation.sharded.fluid", config.deterministic_layers
        )
        assert config.in_layer(
            "repro.simulation.sharded.coordinator", config.deterministic_layers
        )


class TestLoadConfig:
    def test_missing_table_gives_defaults(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[project]\nname = "x"\nversion = "0"\n')
        config = load_config(pyproject)
        assert config.deterministic_layers == DEFAULT_CONFIG.deterministic_layers
        assert config.root == str(tmp_path)

    def test_table_overrides(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.padll-lint]\n"
            'paths = ["lib"]\n'
            'deterministic-layers = ["mypkg.sim"]\n'
            'disable = ["DET005"]\n'
        )
        config = load_config(pyproject)
        assert config.paths == ("lib",)
        assert config.deterministic_layers == ("mypkg.sim",)
        assert config.disable == ("DET005",)
        assert config.src_roots == DEFAULT_CONFIG.src_roots

    def test_unknown_key_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.padll-lint]\nwibble = ["x"]\n')
        with pytest.raises(ConfigError, match="unknown"):
            load_config(pyproject)

    def test_non_list_value_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.padll-lint]\npaths = "src"\n')
        with pytest.raises(ConfigError, match="list of strings"):
            load_config(pyproject)

    def test_disabled_rule_is_skipped(self, tmp_path):
        from repro.lint import lint_paths

        module = tmp_path / "src" / "repro" / "simulation" / "m.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\nt = time.time()\n")
        config = LintConfig(root=str(tmp_path), disable=("DET001",))
        assert lint_paths(config=config).ok

    def test_unknown_disabled_rule_rejected(self, tmp_path):
        from repro.lint import lint_paths

        (tmp_path / "m.py").write_text("x = 1\n")
        config = LintConfig(root=str(tmp_path), disable=("NOPE1",))
        with pytest.raises(ConfigError, match="unknown rule ids"):
            lint_paths([tmp_path / "m.py"], config)

    def test_exclude_skips_files(self, tmp_path):
        from repro.lint import lint_paths

        module = tmp_path / "src" / "repro" / "simulation" / "legacy.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\nt = time.time()\n")
        config = LintConfig(root=str(tmp_path), exclude=("legacy",))
        result = lint_paths(config=config)
        assert result.ok
        assert result.files_scanned == 0

    def test_nonexistent_path_rejected(self, tmp_path):
        from repro.lint import lint_paths

        with pytest.raises(ConfigError, match="does not exist"):
            lint_paths([tmp_path / "ghost"], LintConfig(root=str(tmp_path)))
