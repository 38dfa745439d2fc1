"""Seeded-violation tests for the cross-module WIRE/VEC/FLT rules.

Each test builds a minimal project tree under tmp_path mirroring the
real layout (``src/repro/...``), seeds exactly one violation, and
asserts exactly one finding with the right rule id -- the acceptance
contract for the whole-program pass.
"""

from pathlib import Path

from repro.lint import LintConfig, lint_paths

RPC_STUB = """\
class RpcMessage:
    pass


class Ping(RpcMessage):
    pass


class Reconfigure(RpcMessage):
    pass


class StageEndpoint:
    def handle(self, msg):
        if isinstance(msg, Ping):
            return "pong"
        return None


def register_codec(cls, tag, fields):
    pass


register_codec(Ping, "Ping", ())
register_codec(Reconfigure, "Reconfigure", ())
"""


def _lint_tree(tmp_path: Path, files: dict) -> list:
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    config = LintConfig(root=str(tmp_path))
    result = lint_paths([tmp_path / "src"], config)
    assert not result.parse_errors
    return result.active


class TestWire001:
    def test_unregistered_verb_fires_once(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/rpc.py": RPC_STUB,
                "src/repro/core/session.py": (
                    "from repro.core.rpc import Ping, Reconfigure\n"
                    "\n"
                    "\n"
                    "def send():\n"
                    "    return Reconfigure(), Ping()\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["WIRE001"]
        assert active[0].path.endswith("session.py")
        assert "Reconfigure" in active[0].message

    def test_base_class_dispatch_handles_all_verbs(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/rpc.py": (
                    "class RpcMessage:\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Reconfigure(RpcMessage):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Endpoint:\n"
                    "    def handle(self, msg):\n"
                    "        if isinstance(msg, RpcMessage):\n"
                    "            return msg\n"
                    "        return None\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    'register_codec(Reconfigure, "Reconfigure", ())\n'
                ),
                "src/repro/core/session.py": (
                    "from repro.core.rpc import Reconfigure\n"
                    "\n"
                    "\n"
                    "def send():\n"
                    "    return Reconfigure()\n"
                ),
            },
        )
        assert active == []

    def test_module_const_tuple_expands_in_dispatch(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/rpc.py": (
                    "class RpcMessage:\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Ping(RpcMessage):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Reconfigure(RpcMessage):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "_VERBS = (Ping, Reconfigure)\n"
                    "\n"
                    "\n"
                    "class Endpoint:\n"
                    "    def handle(self, msg):\n"
                    "        if isinstance(msg, _VERBS):\n"
                    "            return msg\n"
                    "        return None\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    'register_codec(Ping, "Ping", ())\n'
                    'register_codec(Reconfigure, "Reconfigure", ())\n'
                ),
                "src/repro/core/session.py": (
                    "from repro.core.rpc import Ping, Reconfigure\n"
                    "\n"
                    "\n"
                    "def send():\n"
                    "    return Reconfigure(), Ping()\n"
                ),
            },
        )
        assert active == []

    def test_missing_codec_registration_fires(self, tmp_path):
        # Handled everywhere, but never registered with the wire codec:
        # the verb would explode the first time it met a socket.
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/rpc.py": (
                    "class RpcMessage:\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Reconfigure(RpcMessage):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Endpoint:\n"
                    "    def handle(self, msg):\n"
                    "        if isinstance(msg, Reconfigure):\n"
                    "            return msg\n"
                    "        return None\n"
                ),
                "src/repro/core/session.py": (
                    "from repro.core.rpc import Reconfigure\n"
                    "\n"
                    "\n"
                    "def send():\n"
                    "    return Reconfigure()\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["WIRE001"]
        assert "no register_codec registration" in active[0].message

    def test_base_class_codec_cannot_stand_in(self, tmp_path):
        # decode calls cls(*fields): coverage is per concrete class.
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/rpc.py": (
                    "class RpcMessage:\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Reconfigure(RpcMessage):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class Endpoint:\n"
                    "    def handle(self, msg):\n"
                    "        if isinstance(msg, Reconfigure):\n"
                    "            return msg\n"
                    "        return None\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    'register_codec(RpcMessage, "RpcMessage", ())\n'
                ),
                "src/repro/core/session.py": (
                    "from repro.core.rpc import Reconfigure\n"
                    "\n"
                    "\n"
                    "def send():\n"
                    "    return Reconfigure()\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["WIRE001"]
        assert "no register_codec registration" in active[0].message


class TestWire002:
    FILES = {
        "src/repro/core/hierarchy.py": (
            "from typing import NamedTuple, Optional, Tuple\n"
            "\n"
            "\n"
            "class JobAggregate(NamedTuple):\n"
            "    job_id: str\n"
            "    demand: float\n"
            "    floor: float\n"
            "\n"
            "\n"
            "class AggregateStats:\n"
            "    jobs: Tuple[JobAggregate, ...]\n"
            "\n"
            "\n"
            "class EnforceJobRateBatch:\n"
            "    entries: Tuple[Tuple[str, float, Optional[float]], ...]\n"
        ),
    }

    def test_wrong_arity_unpack_fires_once(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                **self.FILES,
                "src/repro/core/consumer.py": (
                    "def demands(stats):\n"
                    "    return [demand for job_id, demand in stats.jobs]\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["WIRE002"]
        assert "3-field" in active[0].message

    def test_matching_arity_is_clean(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                **self.FILES,
                "src/repro/core/consumer.py": (
                    "def demands(stats, batch):\n"
                    "    out = [d for _j, d, _f in stats.jobs]\n"
                    "    for job_id, rate, floor in batch.entries:\n"
                    "        out.append(rate)\n"
                    "    return out\n"
                ),
            },
        )
        assert active == []

    CODEC_FILES = {
        "src/repro/core/rpc.py": (
            "class RpcMessage:\n"
            "    pass\n"
            "\n"
            "\n"
            "class EnforceRate(RpcMessage):\n"
            "    channel_id: str\n"
            "    rate: float\n"
            "    now: float\n"
            "    burst: float\n"
            "\n"
            "\n"
            "class Endpoint:\n"
            "    def handle(self, msg):\n"
            "        if isinstance(msg, RpcMessage):\n"
            "            return msg\n"
            "        return None\n"
        ),
    }

    def test_codec_arity_drift_fires_once(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                **self.CODEC_FILES,
                "src/repro/core/wire.py": (
                    "from repro.core.rpc import EnforceRate\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    'register_codec(EnforceRate, "EnforceRate",'
                    ' ("channel_id", "rate", "now"))\n'
                ),
            },
        )
        assert [f.rule for f in active] == ["WIRE002"]
        assert "lists 3 field(s)" in active[0].message
        assert "declares 4" in active[0].message
        assert active[0].path.endswith("wire.py")

    def test_matching_codec_arity_is_clean(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                **self.CODEC_FILES,
                "src/repro/core/wire.py": (
                    "from repro.core.rpc import EnforceRate\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    'register_codec(EnforceRate, "EnforceRate",'
                    ' ("channel_id", "rate", "now", "burst"))\n'
                ),
            },
        )
        assert active == []

    def test_non_literal_fields_tuple_is_skipped(self, tmp_path):
        # A computed fields tuple can't be checked statically; the
        # import-time validation in the real register_codec covers it.
        active = _lint_tree(
            tmp_path,
            {
                **self.CODEC_FILES,
                "src/repro/core/wire.py": (
                    "from repro.core.rpc import EnforceRate\n"
                    "\n"
                    "\n"
                    "def register_codec(cls, tag, fields):\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "_FIELDS = (\"channel_id\",)\n"
                    'register_codec(EnforceRate, "EnforceRate", _FIELDS)\n'
                ),
            },
        )
        assert active == []


ALGO_BASE = """\
class AllocationAlgorithm:
    pass
"""


class TestVec001:
    def test_allocate_only_subclass_fires_once(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/algorithms.py": (
                    ALGO_BASE
                    + "\n"
                    "\n"
                    "class OnlyScalar(AllocationAlgorithm):\n"
                    "    def allocate(self, wants):\n"
                    "        return dict(wants)\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["VEC001"]
        assert "OnlyScalar" in active[0].message

    def test_arrays_twin_and_scalar_only_are_clean(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/algorithms.py": (
                    ALGO_BASE
                    + "\n"
                    "\n"
                    "class Both(AllocationAlgorithm):\n"
                    "    def allocate(self, wants):\n"
                    "        return dict(wants)\n"
                    "\n"
                    "    def allocate_arrays(self, wants):\n"
                    "        return wants\n"
                    "\n"
                    "\n"
                    "class Registered(AllocationAlgorithm):\n"
                    "    scalar_only = True\n"
                    "\n"
                    "    def allocate(self, wants):\n"
                    "        return dict(wants)\n"
                ),
            },
        )
        assert active == []

    def test_cross_module_subclass_is_seen(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/core/algorithms.py": ALGO_BASE,
                "src/repro/core/extra.py": (
                    "from repro.core.algorithms import AllocationAlgorithm\n"
                    "\n"
                    "\n"
                    "class Elsewhere(AllocationAlgorithm):\n"
                    "    def allocate(self, wants):\n"
                    "        return dict(wants)\n"
                ),
            },
        )
        assert [f.rule for f in active] == ["VEC001"]
        assert active[0].path.endswith("extra.py")


DIGEST_STUB = (
    "import hashlib\n"
    "\n"
    "import numpy as np\n"
    "\n"
    "\n"
    "def digest(arr):\n"
    "    payload = repr(total(arr)).encode()\n"
    "    return hashlib.sha256(payload).hexdigest()\n"
    "\n"
    "\n"
    "def total(arr):\n"
    "    return float(np.sum(arr))\n"
)


class TestFlt001:
    def test_bare_sum_on_digest_path_fires_once(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {"src/repro/simulation/digests.py": DIGEST_STUB},
        )
        assert [f.rule for f in active] == ["FLT001"]
        assert "np.sum" in active[0].source

    def test_axis_reduction_is_exempt(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {
                "src/repro/simulation/digests.py": DIGEST_STUB.replace(
                    "np.sum(arr)", "np.sum(arr, axis=0)[0]"
                ),
            },
        )
        assert active == []

    def test_non_deterministic_layer_is_exempt(self, tmp_path):
        active = _lint_tree(
            tmp_path,
            {"src/repro/analysis/digests.py": DIGEST_STUB},
        )
        assert active == []

    def test_pragma_suppresses_project_finding(self, tmp_path):
        source = DIGEST_STUB.replace(
            "return float(np.sum(arr))",
            "return float(np.sum(arr))  # padll: allow(FLT001)",
        )
        for relative in ("src/repro/simulation/digests.py",):
            target = tmp_path / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        config = LintConfig(root=str(tmp_path))
        result = lint_paths([tmp_path / "src"], config)
        assert result.active == []
        assert [f.rule for f in result.suppressed] == ["FLT001"]


class TestDisable:
    def test_project_rule_can_be_disabled(self, tmp_path):
        for relative, source in {
            "src/repro/simulation/digests.py": DIGEST_STUB
        }.items():
            target = tmp_path / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        config = LintConfig(root=str(tmp_path), disable=("FLT001",))
        result = lint_paths([tmp_path / "src"], config)
        assert result.active == []
        assert result.findings == []
