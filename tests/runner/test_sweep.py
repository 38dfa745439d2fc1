"""Sweep runner: determinism, caching, and parallel/serial equivalence."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.errors import ConfigError
from repro.runner import (
    ARTEFACTS,
    EXPERIMENTS,
    GRIDS,
    Cell,
    ResultCache,
    SweepRunner,
    ablation_grid,
    cell_digest,
    dependability_grid,
    fig4_grid,
    fig5_grid,
    full_grid,
    grid,
    harm_grid,
    overhead_grid,
    resolve,
    results_equal,
    run_cell,
    sharded_grid,
)


def small_grid(seed: int = 0):
    """A fast two-cell grid exercising two different experiments."""
    return [
        Cell("harm", {"protected": True, "duration": 120.0}, seed=seed),
        Cell(
            "fig4-metadata",
            {
                "target": "open",
                "duration": 60.0,
                "step_period": 30.0,
                "drain_tail": 30.0,
            },
            seed=seed,
        ),
    ]


class TestCell:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            Cell("no-such-experiment")

    def test_name_includes_detail_and_seed(self):
        assert Cell("fig5", {"setup_name": "static"}, seed=3).name == "fig5:static@seed3"
        assert Cell("harm", {"protected": False}).name == "harm:unprotected@seed0"

    def test_grids_cover_paper_artefacts(self):
        assert len(fig4_grid()) == 5
        assert len(fig5_grid()) == 4
        assert len(ablation_grid()) == 3
        assert len(harm_grid()) == 2
        assert len(overhead_grid()) == 1
        # dependability: 3 fault axes x (flat, hier, hier-split).
        assert len(full_grid()) == 24
        # One cell per shard count; digest-equal by design, so the grid
        # is an invariance check and stays out of full_grid.
        cells = sharded_grid(seed=1, shard_counts=(1, 2, 4))
        assert [c.name for c in cells] == [
            "fig4-sharded:1shard@seed1",
            "fig4-sharded:2shard@seed1",
            "fig4-sharded:4shard@seed1",
        ]
        assert all(c.name not in {x.name for x in full_grid()} for c in cells)


class TestCacheKeys:
    def test_digest_depends_on_params_and_seed(self):
        base = Cell("fig5", {"setup_name": "static", "duration": 60.0}, seed=0)
        assert cell_digest(base) == cell_digest(
            Cell("fig5", {"duration": 60.0, "setup_name": "static"}, seed=0)
        )
        assert cell_digest(base) != cell_digest(
            Cell("fig5", {"setup_name": "static", "duration": 61.0}, seed=0)
        )
        assert cell_digest(base) != cell_digest(
            Cell("fig5", {"setup_name": "static", "duration": 60.0}, seed=1)
        )

    def test_a_source_byte_changes_the_entry_key(self, tmp_path):
        # A cache entry must not outlive the code that computed it: the
        # key a fresh process derives moves with one byte of one module.
        package = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent,
            package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        probe = (
            "import repro; from repro.runner import Cell, ResultCache; "
            "print(repro.__file__); "
            "print(ResultCache('c').path_for(Cell('harm', {'protected': True})).name)"
        )

        def entry_key():
            out = subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONPATH": str(tmp_path)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.split()
            assert Path(out[0]).is_relative_to(package)
            return out[1]

        before = entry_key()
        assert entry_key() == before
        module = package / "experiments" / "harm.py"
        data = module.read_bytes()
        assert data.endswith(b"\n")
        module.write_bytes(data[:-1] + b" ")
        assert entry_key() != before

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = Cell("fig5", {"setup_name": "static", "duration": 60.0})
        path = cache.put(cell, {"ok": 1.0})
        path.write_bytes(b"not a pickle")
        hit, result = cache.get(cell)
        assert not hit and result is None
        assert not path.exists()  # dropped for recompute


class TestResultsEqual:
    def test_arrays_compare_bitwise(self):
        a = np.array([0.1, 0.2, 0.3])
        assert results_equal({"x": (a, a * 2)}, {"x": (a.copy(), a * 2)})
        b = a.copy()
        b[1] = np.nextafter(b[1], 1.0)  # one-ulp difference must fail
        assert not results_equal({"x": a}, {"x": b})

    def test_dataclasses_and_nans(self):
        cell = Cell("fig5", {"setup_name": "static"})
        assert results_equal(cell, Cell("fig5", {"setup_name": "static"}))
        assert not results_equal(cell, Cell("fig5", {"setup_name": "priority"}))
        assert results_equal(float("nan"), float("nan"))
        assert not results_equal(1.0, 2.0)


class TestSweepRunner:
    def test_serial_parallel_and_cache_replay_identical(self, tmp_path):
        cells = small_grid()
        lines: list[str] = []
        serial = SweepRunner(
            jobs=1, cache_dir=tmp_path / "a", log=lines.append
        ).run(cells)
        parallel = SweepRunner(
            jobs=2, cache_dir=tmp_path / "b", log=lines.append
        ).run(cells)
        replay = SweepRunner(
            jobs=1, cache_dir=tmp_path / "a", log=lines.append
        ).run(cells)

        assert [o.cell for o in serial] == cells
        assert [o.cell for o in parallel] == cells
        assert not any(o.cached for o in serial)
        assert not any(o.cached for o in parallel)
        # Second sweep of an unchanged grid completes entirely from cache.
        assert all(o.cached for o in replay)
        for s, p, r in zip(serial, parallel, replay):
            assert results_equal(s.result, p.result), s.cell.name
            assert results_equal(s.result, r.result), s.cell.name

    def test_progress_lines_are_structured(self, tmp_path):
        lines: list[str] = []
        cells = [Cell("harm", {"protected": True, "duration": 60.0})]
        SweepRunner(jobs=1, cache_dir=tmp_path, log=lines.append).run(cells)
        assert any(
            line.startswith("[sweep] 1/1 harm:protected@seed0 done") for line in lines
        )
        assert lines[-1].startswith("[sweep] 1 cells: 0 cached, 1 computed")

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        cells = [Cell("harm", {"protected": True, "duration": 60.0})]
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path, use_cache=False, log=lambda _line: None
        )
        first = runner.run(cells)
        second = runner.run(cells)
        assert list(tmp_path.glob("*.pkl")) == []
        assert not first[0].cached and not second[0].cached
        assert results_equal(first[0].result, second[0].result)

    def test_seed_change_misses_cache(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, log=lambda _line: None)
        cell0 = Cell("harm", {"protected": True, "duration": 60.0}, seed=0)
        cell1 = Cell("harm", {"protected": True, "duration": 60.0}, seed=1)
        runner.run([cell0])
        outcomes = runner.run([cell1])
        assert not outcomes[0].cached

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(jobs=0)

    def test_run_cell_matches_direct_call(self):
        from repro.experiments.harm import run_harm

        cell = Cell("harm", {"protected": True, "duration": 60.0}, seed=0)
        assert results_equal(run_cell(cell), run_harm(protected=True, duration=60.0))


#: ``(cell.name, cell_digest(cell))`` for every cell of every grid at
#: seed 0, paper-scale (False) and ``--quick`` (True), captured at
#: 482e6b8 (the parent of the PR that introduced the table) by running
#: that commit's ``padll-repro sweep GRID [--quick]`` with ``SweepRunner``
#: replaced by a recorder.  The digest covers ``repro.__version__`` and
#: ``CACHE_VERSION``: a bump of either moves every literal on purpose --
#: recapture them then, and only then.  (An entry's on-disk key also
#: folds in the package source, so a cache does not outlive a code change;
#: the cell digest is what names the cell.)
PARENT_DIGESTS = {
    ("fig4", False): [
        ("fig4-metadata:open@seed0",
         "294fe219680196fe7f9a99f607886301bb501d90e85a853d70e4132d5036d378"),
        ("fig4-metadata:close@seed0",
         "175d61cfa76ecc69a69ae5605e28f870096351c16f16428f608f01fa081f7515"),
        ("fig4-metadata:getattr@seed0",
         "38f0c22d67f23aa5a516476f28e04ca55876e0a05ce0bd83ff8275ec53501fd8"),
        ("fig4-metadata:rename@seed0",
         "46adcd9f560bd957a0500f15e328a627d4abf60cdc95ff55a41c2836b427daa5"),
        ("fig4-metadata:metadata@seed0",
         "af4c21b5767be6f0b161f525590fe7362c9031184f1b14323a2378ed8dc6a692"),
    ],
    ("fig4", True): [
        ("fig4-metadata:open@seed0",
         "c8ae5d808053a66e35199a9c1135e35da2d9b1efea61cf9778017790bf46bf8b"),
        ("fig4-metadata:close@seed0",
         "9576b08d02b02ba237f5e59094a715d8f1034bbbad42708be7321cc2b811618f"),
        ("fig4-metadata:getattr@seed0",
         "f030187b54eb0bb79a20acf5f19666d4cce37748e6ecc201965072c7f69033d8"),
        ("fig4-metadata:rename@seed0",
         "21e20dbc88e6d537865c0e242ac9b841dc86a0b81adedca53867199c6293159e"),
        ("fig4-metadata:metadata@seed0",
         "3d0fc68fbe50ab4557f302ccca945ecb2c0f2470ca99426452ef1755dc28a2d2"),
    ],
    ("fig5", False): [
        ("fig5:baseline@seed0",
         "8390926bce53b949f1b627f58a4d8231222fb170f6258f7b21854c3bc1aff9d7"),
        ("fig5:static@seed0",
         "2e1d07d04fc2e34abac53c07e1ace3a3868f4115d6b9e6c04f50b79f6394aa1a"),
        ("fig5:priority@seed0",
         "dd47385fbad8f9a264488873b3e855e878f377740931c895d672f25f4581d87b"),
        ("fig5:proportional@seed0",
         "d93d10e8359af13c094a491d5e971d52512da977acb7e988e08a3b68ea958629"),
    ],
    ("fig5", True): [
        ("fig5:baseline@seed0",
         "f959b36bf528e09262c03ccf3706a2b7f0ac2dfd62fe1439799ef7a93b55d2a4"),
        ("fig5:static@seed0",
         "3a7c6d3718ed869336288b08e8c8e3b845f6262868b299dcf69faaf0c0ba3c79"),
        ("fig5:priority@seed0",
         "8b0544ff416fa1ddfcbe0ee359eba6871e7be6b35cce4cf2e8933bc1cac4a7fb"),
        ("fig5:proportional@seed0",
         "e14e13197316140ada8b766b1a5cdf352e89a6423697f6a48850783032ef3f5f"),
    ],
    ("ablations", False): [
        ("ablation-lag@seed0",
         "8b43f8582bf8e06cd5409113681ab7ceb8b1cb16445fd753f325c7faa13241c9"),
        ("ablation-burst@seed0",
         "347f3e665224849341e1c9de4bf5b15397aee4451532e4eb9c93c89741b3074a"),
        ("ablation-loop@seed0",
         "d33cdfce9b4d8b3eb5b0f01446aa9f3995796ec0a9a00587ef1e17cc2e21ba3c"),
    ],
    ("ablations", True): [
        ("ablation-lag@seed0",
         "40a45f59f116bd28927974e3e93d32dd0310163fe475b773ac91849ec88d1b41"),
        ("ablation-burst@seed0",
         "0ec160a63ba0031923c3c220b80e17e8e8e52e779103cfb45a189ac933347a8c"),
        ("ablation-loop@seed0",
         "9f53111530c64d1d02d0827ea681c233346b6a67925f1a7daaff56f407d7596f"),
    ],
    ("harm", False): [
        ("harm:unprotected@seed0",
         "efb0ca1f916487dfa286a597581d483db8aaf0ee4d7404b8d216a11c22f54aed"),
        ("harm:protected@seed0",
         "558db7a5c818840724bc811581bbfa67a2121c54ecaa45268aa42186c5383791"),
    ],
    ("harm", True): [
        ("harm:unprotected@seed0",
         "72bc3bbb1c31138acb2ad3df68f7ee2948bb196581a0ff9ad3b639548fad3311"),
        ("harm:protected@seed0",
         "9e6f729886f4ea1cf4af7d4a8fc9b74356f9b7b2104c61bd2da59e03561eac12"),
    ],
    ("overhead", False): [
        ("overhead-sim@seed0",
         "a8f151374913711cda2cd79b90365b4d56f2991fc3cf5e7f3feb6d2ddf5025a7"),
    ],
    ("overhead", True): [
        ("overhead-sim@seed0",
         "6691b66e7ccbf6086909731a4ad2897ae7817d3d041a95faee2b8202a63a0cc1"),
    ],
    ("dependability", False): [
        ("dependability:loss-flat@seed0",
         "767fde996fe366add46fa05963cfa5515d5b1abbd0c019382090c3c013619cd5"),
        ("dependability:loss-hier@seed0",
         "cbaffabb0dd261de4cbd50dc0e50940e721e2b3e8931a65a1ee1b0ac43ebb262"),
        ("dependability:loss-hier-split@seed0",
         "3deb863d2bd0a760483e4f1f41d947f9cb5d98b107b32f06d6083eeabe1f929c"),
        ("dependability:latency-flat@seed0",
         "b819b803f80c1a0887ac83a5b2b545b8748173324fb33e8237b6c2d38fcebc6e"),
        ("dependability:latency-hier@seed0",
         "e4019f3f086b0d90a2acf9e2dad17b66ba183d6a339619b70850a65464554b2e"),
        ("dependability:latency-hier-split@seed0",
         "09d4453fafdc7cd716a8c873b8f39d468fc478ccb6ee985d70b83769504382f4"),
        ("dependability:partition-flat@seed0",
         "5c67fdd2220a923d91c139cfdb65ae30025d8be3d89677c0cb627083635a9212"),
        ("dependability:partition-hier@seed0",
         "d4d8cc6474dae7c7dca6f30952f0495250e5e123c247716acc1d0389348d837f"),
        ("dependability:partition-hier-split@seed0",
         "9a71888efb3041ed2b18c04e5eefcee05f62cf25e6bcaf2ff4e7e2e8c5529eec"),
    ],
    ("dependability", True): [
        ("dependability:loss-flat@seed0",
         "c9c3bfc9b0a757a61450659e8363c693b7d66f4595da39650b39bc04524c67b7"),
        ("dependability:loss-hier@seed0",
         "c3fa22ab06cf475634dce2dba21a2852dfb34336d443f17fa8c9df2d5abfbdb3"),
        ("dependability:loss-hier-split@seed0",
         "feea91c4e184286fee94d9147b7ca01100bed565e08ba6028fa559bae4744ea1"),
        ("dependability:latency-flat@seed0",
         "13e353ab72959df961fc8eb52813c48e8a0244dc2ae2ad280aec8ecc3536a32c"),
        ("dependability:latency-hier@seed0",
         "5b322339e18e4c059f7c31ae2bc59b46b3a2b0e96143fc64c5a1df04f2b1f45d"),
        ("dependability:latency-hier-split@seed0",
         "2cca339a14e23e85c9e957b2827a5e0f1376ce41be12f30425dac80e79209176"),
        ("dependability:partition-flat@seed0",
         "6fae9c346ccbc4c7debe9e5581c4a07baf2fe89d7a00b66704e61c8727d70f5e"),
        ("dependability:partition-hier@seed0",
         "8e1a9eac97f05739f5735fd66d16edfac9548523e55bb6bc18efee34c492e479"),
        ("dependability:partition-hier-split@seed0",
         "65002b4839b9d1e64ac3f08b06b05ee160dd7b8e9f7d37a7f1c210100775c535"),
    ],
    ("sharded", False): [
        ("fig4-sharded:1shard@seed0",
         "01b279212b51b40b67af2b18d40d41fb1fddf2dc9e41947d281669bc3e820cfa"),
        ("fig4-sharded:2shard@seed0",
         "73b54e269cd924847c872442903adc988039d25a9612cf82d42b1687ced37cae"),
    ],
    ("sharded", True): [
        ("fig4-sharded:1shard@seed0",
         "18d2598bc16c22eeedcf97feb96a32eaf160537852633df62a21c7dc348c53c8"),
        ("fig4-sharded:2shard@seed0",
         "3e4cc03dcc858170ebf053647efcddecb6bd9aea86669cb8a0e900a5726b224c"),
    ],
}


class TestExperimentTable:
    """``runner/cells.py`` names every experiment, artefact and grid once."""

    @pytest.mark.parametrize(
        "target", [*EXPERIMENTS.values(), *ARTEFACTS.values()]
    )
    def test_every_entry_resolves_to_a_callable(self, target):
        assert callable(resolve(target)), target

    def test_all_is_the_concatenation_full_grid_always_was(self):
        parts = (
            fig4_grid(seed=2)
            + fig5_grid(seed=2)
            + ablation_grid(seed=2)
            + harm_grid(seed=2)
            + overhead_grid(seed=2)
            + dependability_grid(seed=2)
        )
        assert grid("all", seed=2) == full_grid(seed=2) == parts
        assert len(parts) == 24
        assert set(GRIDS) == {name for name, _quick in PARENT_DIGESTS}

    @pytest.mark.parametrize("name, quick", sorted(PARENT_DIGESTS))
    def test_cells_keep_the_cache_keys_they_had(self, name, quick):
        # A sweep cache written before the table existed must replay from
        # cache after it: same cell names, same digests, same order.
        cells = grid(name, seed=0, quick=quick)
        assert [(c.name, cell_digest(c)) for c in cells] == PARENT_DIGESTS[name, quick]

    def test_quick_all_concatenates_the_quick_grids(self):
        assert [cell_digest(c) for c in grid("all", quick=True)] == [
            digest
            for (name, quick), cells in PARENT_DIGESTS.items()
            if quick and name != "sharded"
            for _name, digest in cells
        ]

    def test_json_lists_reach_the_experiment_as_tuples(self, monkeypatch):
        import repro.experiments.overhead as overhead

        seen = {}
        monkeypatch.setattr(
            overhead, "run_sim_overhead", lambda **kwargs: seen.update(kwargs)
        )
        run_cell(Cell("overhead-sim", {"targets": ["open"], "duration": 1.0}, seed=4))
        assert seen == {"seed": 4, "targets": ("open",), "duration": 1.0}

