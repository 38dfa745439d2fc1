"""Edge cases of import/alias resolution (satellite of the project pass).

The resolver must be *conservative*: a spelling it cannot pin down may
resolve to several candidates, but it must never let a rule silently
miss a canonical name the module could plausibly be using.
"""

import ast

from repro.lint import lint_source
from repro.lint.resolve import ImportResolver


def _resolver(source: str, module: str = "", is_package: bool = False):
    return ImportResolver(
        ast.parse(source), module=module, is_package=is_package
    )


def _expr(source: str) -> ast.AST:
    return ast.parse(source, mode="eval").body


class TestRelativeImports:
    def test_two_dot_import_resolves_against_module(self):
        resolver = _resolver(
            "from ..core import fabric", module="repro.simulation.pool"
        )
        assert resolver.resolve(_expr("fabric")) == "repro.core.fabric"

    def test_one_dot_import_in_plain_module(self):
        resolver = _resolver(
            "from .fluid import FluidBlock",
            module="repro.simulation.sharded.pool",
        )
        assert (
            resolver.resolve(_expr("FluidBlock"))
            == "repro.simulation.sharded.fluid.FluidBlock"
        )

    def test_one_dot_import_in_package_init(self):
        # Inside a package __init__, level 1 is the package itself.
        resolver = _resolver(
            "from . import engine",
            module="repro.simulation",
            is_package=True,
        )
        assert resolver.resolve(_expr("engine")) == "repro.simulation.engine"

    def test_unanchored_relative_import_is_skipped_not_wrong(self):
        # No module name available: the import binds nothing, and the
        # bare-name fallback applies (never a fabricated canonical name).
        resolver = _resolver("from ..core import fabric")
        assert resolver.resolve(_expr("fabric")) == "fabric"

    def test_relative_import_beyond_top_level_is_skipped(self):
        resolver = _resolver("from ...far import thing", module="repro.core")
        assert resolver.resolve(_expr("thing")) == "thing"


class TestDottedImportAliases:
    def test_import_a_b_as_c_chains(self):
        resolver = _resolver("import numpy.random as nr")
        assert (
            resolver.resolve(_expr("nr.default_rng"))
            == "numpy.random.default_rng"
        )
        assert (
            resolver.resolve(_expr("nr.mtrand.rand"))
            == "numpy.random.mtrand.rand"
        )

    def test_plain_dotted_import_binds_root(self):
        resolver = _resolver("import numpy.random")
        assert (
            resolver.resolve(_expr("numpy.random.rand"))
            == "numpy.random.rand"
        )

    def test_resolve_call_uses_func_expression(self):
        resolver = _resolver("import time as t")
        call = ast.parse("t.time()", mode="eval").body
        assert resolver.resolve_call(call) == "time.time"


class TestStarImports:
    def test_star_import_adds_candidates_without_losing_primary(self):
        resolver = _resolver("from time import *\nfrom os import *")
        candidates = resolver.resolve_candidates(_expr("perf_counter"))
        assert candidates[0] == "perf_counter"  # bare-name fallback first
        assert "time.perf_counter" in candidates
        assert "os.perf_counter" in candidates

    def test_explicit_alias_wins_over_star_candidates(self):
        resolver = _resolver("from time import *\nimport numpy as np")
        # np is bound by a real import: no star candidates apply.
        assert resolver.resolve_candidates(_expr("np.sum")) == ("numpy.sum",)

    def test_attribute_chains_through_star_root(self):
        resolver = _resolver("from os import *")
        candidates = resolver.resolve_candidates(_expr("path.join"))
        assert "os.path.join" in candidates

    def test_duplicate_star_modules_collapse(self):
        resolver = _resolver("from time import *\nfrom time import *")
        assert resolver.star_modules == ("time",)

    def test_det001_still_fires_through_star_import(self):
        # The end-to-end guarantee: a star import cannot dodge the
        # wall-clock rule inside a deterministic layer.
        source = (
            "from time import *\n"
            "\n"
            "\n"
            "def tick():\n"
            "    return perf_counter()\n"
        )
        findings, parse_error = lint_source(source, "src/repro/simulation/starred.py")
        assert parse_error is None
        assert [f.rule for f in findings] == ["DET001"]
