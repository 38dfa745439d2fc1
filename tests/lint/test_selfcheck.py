"""The gate itself: ``src/repro`` lints clean (there is no baseline to
subtract), and a seeded violation in a deterministic layer is caught."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintConfig, lint_paths
from repro.lint.rules import PATCHED_OS_NAMES

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG = LintConfig(root=str(REPO_ROOT))


class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        # No baseline to subtract: every intentional exemption is an
        # in-source pragma.
        result = lint_paths(config=CONFIG)
        assert result.parse_errors == []
        assert result.active == [], "\n".join(
            finding.render() for finding in result.active
        )
        # The whole src/repro tree was actually scanned (catches a config
        # regression that would silently lint nothing).
        assert result.files_scanned > 60

    def test_seeded_violation_is_caught(self, tmp_path):
        # CI-gate rehearsal: introduce a wall-clock call into a copy of a
        # real simulation module and assert the gate trips.
        engine_src = (REPO_ROOT / "src/repro/simulation/engine.py").read_text()
        seeded = engine_src + (
            "\n\ndef _leak_wall_clock():\n    import time\n"
            "    return time.time()\n"
        )
        target = tmp_path / "src" / "repro" / "simulation" / "engine.py"
        target.parent.mkdir(parents=True)
        target.write_text(seeded)
        result = lint_paths([target], CONFIG)
        assert [f.rule for f in result.active] == ["DET001"]
        assert result.active[0].line > len(engine_src.splitlines()) - 1

    def test_patched_os_table_covers_monkeypatch_surface(self):
        # INT001's entry-point list must cover everything the Interposer
        # actually patches, or a re-entrancy bug could slip past the lint.
        from repro.interpose.monkeypatch import _FD_TABLE, _OS_TABLE

        patched = set(_OS_TABLE) | set(_FD_TABLE) | {"open"}
        missing = patched - PATCHED_OS_NAMES
        assert not missing, f"INT001 table missing patched calls: {missing}"

    def test_linter_obeys_its_own_rules(self):
        # repro.lint is not a deterministic layer, but DET003/DET005 are
        # tree-wide; the linter's own sources must pass them.
        result = lint_paths([REPO_ROOT / "src/repro/lint"], CONFIG)
        assert result.active == [], "\n".join(
            finding.render() for finding in result.active
        )
