"""Positive/negative fixture snippets for every lint rule."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

#: Paths mapping into each scope given the default src-roots.
DET_PATH = "src/repro/simulation/mod.py"
FREE_PATH = "src/repro/analysis/mod.py"
INTERPOSE_PATH = "src/repro/interpose/mod.py"


def run_lint(code: str, path: str = DET_PATH):
    findings, error = lint_source(textwrap.dedent(code), path)
    assert error is None, error
    return findings


def active_rules(code: str, path: str = DET_PATH):
    return [f.rule for f in run_lint(code, path) if not f.suppressed]


class TestDET001WallClock:
    def test_flags_time_time_in_deterministic_layer(self):
        assert active_rules("import time\nt = time.time()\n") == ["DET001"]

    def test_flags_aliased_import(self):
        code = "from time import perf_counter as pc\nt = pc()\n"
        assert active_rules(code) == ["DET001"]

    def test_flags_datetime_now(self):
        code = "import datetime\nd = datetime.datetime.now()\n"
        assert active_rules(code) == ["DET001"]

    def test_flags_aliased_module(self):
        code = "import time as clock\nt = clock.monotonic()\n"
        assert active_rules(code) == ["DET001"]

    def test_ignores_outside_deterministic_layers(self):
        assert active_rules("import time\nt = time.time()\n", FREE_PATH) == []

    def test_ignores_reference_without_call(self):
        # Passing the clock as a default (live-layer injection pattern).
        code = "import time\ndef f(clock=time.monotonic):\n    return clock\n"
        assert active_rules(code) == []


class TestDET002UnseededRandom:
    def test_flags_stdlib_module_draw(self):
        assert active_rules("import random\nx = random.random()\n") == ["DET002"]

    def test_flags_from_import_draw(self):
        code = "from random import shuffle\nshuffle([1, 2])\n"
        assert active_rules(code) == ["DET002"]

    def test_flags_numpy_global_draw(self):
        code = "import numpy as np\nx = np.random.rand(4)\n"
        assert active_rules(code) == ["DET002"]

    def test_flags_numpy_global_seed(self):
        code = "import numpy\nnumpy.random.seed(0)\n"
        assert active_rules(code) == ["DET002"]

    def test_flags_unseeded_default_rng(self):
        code = "import numpy as np\nrng = np.random.default_rng()\n"
        assert active_rules(code) == ["DET002"]

    def test_allows_seeded_default_rng(self):
        code = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert active_rules(code) == []

    def test_allows_generator_plumbing(self):
        code = """
        from numpy.random import Generator, PCG64, SeedSequence
        rng = Generator(PCG64(SeedSequence(0)))
        """
        assert active_rules(code) == []

    def test_allows_draws_on_explicit_generator(self):
        code = """
        from repro.simulation.rng import make_rng
        rng = make_rng(3)
        x = rng.normal()
        """
        assert active_rules(code) == []


class TestDET003UnorderedIteration:
    def test_flags_bare_listdir(self):
        code = "import os\nnames = os.listdir('.')\n"
        assert active_rules(code) == ["DET003"]

    def test_allows_sorted_listdir(self):
        code = "import os\nnames = sorted(os.listdir('.'))\n"
        assert active_rules(code) == []

    def test_flags_glob_module(self):
        code = "import glob\nfiles = glob.glob('*.json')\n"
        assert active_rules(code) == ["DET003"]

    def test_flags_path_glob_iteration(self):
        code = """
        from pathlib import Path
        for entry in Path('.').glob('*.pkl'):
            print(entry)
        """
        assert active_rules(code) == ["DET003"]

    def test_allows_sorted_path_glob_iteration(self):
        code = """
        from pathlib import Path
        for entry in sorted(Path('.').glob('*.pkl')):
            print(entry)
        """
        assert active_rules(code) == []

    def test_flags_set_literal_iteration(self):
        code = "for x in {1, 2, 3}:\n    print(x)\n"
        assert active_rules(code) == ["DET003"]

    def test_flags_set_call_in_comprehension(self):
        code = "xs = [1, 2]\nys = [y for y in set(xs)]\n"
        assert active_rules(code) == ["DET003"]

    def test_allows_sorted_set_iteration(self):
        code = "xs = [1, 2]\nfor x in sorted(set(xs)):\n    print(x)\n"
        assert active_rules(code) == []

    def test_allows_membership_and_construction(self):
        code = "seen = set()\nok = 1 in {1, 2}\n"
        assert active_rules(code) == []

    def test_flags_json_dumps_without_sort_keys_in_det_layer(self):
        code = "import json\nd = dict(a=1)\ns = json.dumps(d)\n"
        assert active_rules(code) == ["DET003"]

    def test_allows_json_dumps_with_sort_keys(self):
        code = "import json\nd = dict(a=1)\ns = json.dumps(d, sort_keys=True)\n"
        assert active_rules(code) == []

    def test_allows_json_dumps_of_literal(self):
        code = "import json\ns = json.dumps({'a': 1})\n"
        assert active_rules(code) == []

    def test_json_rule_scoped_to_deterministic_layers(self):
        code = "import json\nd = dict(a=1)\ns = json.dumps(d)\n"
        assert active_rules(code, FREE_PATH) == []


class TestDET004IdentityKey:
    def test_flags_id_in_deterministic_layer(self):
        assert active_rules("key = id(object())\n") == ["DET004"]

    def test_flags_builtin_hash(self):
        assert active_rules("key = hash('abc')\n") == ["DET004"]

    def test_ignores_outside_deterministic_layers(self):
        assert active_rules("key = id(object())\n", FREE_PATH) == []

    def test_ignores_method_named_id(self):
        assert active_rules("class C:\n    def id(self):\n        return 1\nc = C()\nx = c.id()\n") == []


class TestDET005MutableDefault:
    def test_flags_list_literal_default(self):
        assert active_rules("def push(x, acc=[]):\n    acc.append(x)\n") == ["DET005"]

    def test_flags_dict_constructor_default(self):
        assert active_rules("def f(opts=dict()):\n    return opts\n") == ["DET005"]

    def test_flags_keyword_only_default(self):
        assert active_rules("def f(*, acc={}):\n    return acc\n") == ["DET005"]

    def test_allows_private_function(self):
        assert active_rules("def _helper(acc=[]):\n    return acc\n") == []

    def test_allows_immutable_defaults(self):
        code = "def f(a=None, b=(), c='x', d=0):\n    return a, b, c, d\n"
        assert active_rules(code) == []


class TestDET006TelemetryClock:
    def test_allows_explicit_positional_timestamp(self):
        code = "def f(events, now):\n    events.emit('control.cycle', now, rate=1.0)\n"
        assert active_rules(code) == []

    def test_allows_explicit_keyword_timestamp(self):
        code = "def f(tracer, ctx, now):\n    tracer.emit_point(ctx, 'reply', now=now)\n"
        assert active_rules(code) == []

    def test_allows_subscript_timestamp(self):
        # An arrival stamp pulled from a queued record is observed time.
        code = "def f(tracer, ctx, head, now):\n    tracer.emit_span(ctx, 's', head[3], now)\n"
        assert active_rules(code) == []

    def test_flags_computed_timestamp(self):
        code = "def f(events, clock):\n    events.emit('x', clock(), a=1)\n"
        assert active_rules(code) == ["DET006"]

    def test_flags_computed_span_end(self):
        code = "def f(tracer, ctx, start, clock):\n    tracer.emit_span(ctx, 's', start, clock())\n"
        assert active_rules(code) == ["DET006"]

    def test_flags_missing_timestamp(self):
        code = "def f(events):\n    events.emit('x')\n"
        assert active_rules(code) == ["DET006"]

    def test_telemetry_layer_is_deterministic_scope(self):
        code = "def f(events, clock):\n    events.emit('x', clock())\n"
        assert active_rules(code, "src/repro/telemetry/mod.py") == ["DET006"]

    def test_ignores_interpose_layer(self):
        # Live-layer spans are wall-clock by design.
        code = "def f(tracer, ctx, clock):\n    tracer.emit_span(ctx, 's', clock(), clock())\n"
        assert active_rules(code, INTERPOSE_PATH) == []

    def test_ignores_outside_deterministic_layers(self):
        code = "def f(events, clock):\n    events.emit('x', clock())\n"
        assert active_rules(code, FREE_PATH) == []


class TestINT001InterposeReentry:
    def test_flags_builtin_open(self):
        code = "def probe(path):\n    return open(path)\n"
        assert active_rules(code, INTERPOSE_PATH) == ["INT001"]

    def test_flags_patched_os_call(self):
        code = "import os\ndef probe(path):\n    return os.stat(path)\n"
        assert active_rules(code, INTERPOSE_PATH) == ["INT001"]

    def test_flags_io_open(self):
        code = "import io\ndef probe(path):\n    return io.open(path)\n"
        assert active_rules(code, INTERPOSE_PATH) == ["INT001"]

    def test_allows_saved_original(self):
        code = """
        def make_wrapper(original):
            def wrapper(path):
                return original(path)
            return wrapper
        """
        assert active_rules(code, INTERPOSE_PATH) == []

    def test_allows_unpatched_os_call(self):
        code = "import os\ndef norm(p):\n    return os.fspath(p)\n"
        assert active_rules(code, INTERPOSE_PATH) == []

    def test_scoped_to_interpose_layers(self):
        code = "def probe(path):\n    return open(path)\n"
        assert active_rules(code, FREE_PATH) == []


class TestFLT001FullReduction:
    DIGEST = """
    import hashlib

    import numpy as np


    def digest(arr):
        return hashlib.sha256(repr(total(arr)).encode()).hexdigest()


    def total(arr):
        return float(np.sum(arr))
    """

    def test_flags_full_sum_on_a_digest_path(self):
        findings = run_lint(self.DIGEST)
        assert [f.rule for f in findings] == ["FLT001"]
        assert "np.sum" in findings[0].source

    def test_flags_bare_sum_with_no_digest_anywhere(self):
        # Per module: a full reduction fires whether or not anything in
        # the program hashes it.
        code = "import numpy as np\ndef f(x):\n    return np.sum(x) + x.sum()\n"
        assert active_rules(code) == ["FLT001", "FLT001"]

    def test_flags_full_add_reduce(self):
        # ``np.add.reduce(x)`` is ``.sum()`` without numpy's Python
        # wrapper: the same order-sensitive fold to one scalar.
        code = self.DIGEST.replace("np.sum(arr)", "np.add.reduce(arr)")
        findings = run_lint(code)
        assert [f.rule for f in findings] == ["FLT001"]
        assert "np.add.reduce()" in findings[0].message

    def test_axis_reduction_is_exempt(self):
        code = self.DIGEST.replace("np.sum(arr)", "np.sum(arr, axis=0)[0]")
        assert active_rules(code) == []
        for axis_wise in ("np.add.reduce(arr, 0)[0]", "np.add.reduce(arr, axis=1)[0]"):
            assert active_rules(self.DIGEST.replace("np.sum(arr)", axis_wise)) == []

    def test_ignores_outside_deterministic_layers(self):
        assert active_rules(self.DIGEST, FREE_PATH) == []

    def test_pragma_suppresses(self):
        code = self.DIGEST.replace(
            "np.sum(arr))", "np.sum(arr))  # padll: allow(FLT001)"
        )
        findings = run_lint(code)
        assert [(f.rule, f.suppressed) for f in findings] == [("FLT001", True)]


class TestFindingMetadata:
    def test_finding_carries_location_and_source(self):
        finding = run_lint("import time\nt = time.time()\n")[0]
        assert finding.rule == "DET001"
        assert finding.line == 2
        assert finding.source == "t = time.time()"
        assert finding.path == DET_PATH
        assert "time.time" in finding.render()

    def test_syntax_error_reported_not_raised(self):
        findings, error = lint_source("def broken(:\n", DET_PATH)
        assert findings == []
        assert error is not None and "syntax error" in error
