"""Tests for the per-operation MDS cost model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pfs.costs import OP_COSTS, op_cost


class TestCosts:
    def test_paper_cost_ordering(self):
        """Section II: getattr < setattr/close < open < unlink < mkdir < rename."""
        assert op_cost("getattr") < op_cost("setattr")
        assert op_cost("setattr") <= op_cost("close") < op_cost("open")
        assert op_cost("open") < op_cost("unlink")
        assert op_cost("unlink") < op_cost("mkdir")
        assert op_cost("mkdir") < op_cost("rename")

    def test_rename_is_most_expensive_metadata_op(self):
        assert max(OP_COSTS, key=op_cost) == "rename"

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_data_kinds_have_no_cost(self, kind):
        assert kind not in OP_COSTS
        with pytest.raises(ConfigError):
            op_cost(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            op_cost("frobnicate")

    def test_table_immutable(self):
        with pytest.raises(TypeError):
            OP_COSTS["getattr"] = 99.0  # type: ignore[index]
