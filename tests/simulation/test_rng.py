"""Tests for deterministic RNG plumbing."""

from __future__ import annotations

import numpy as np

from repro.simulation.rng import SeedSequence, make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).random(100)
        b = make_rng(7).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(7).random(100)
        b = make_rng(8).random(100)
        assert not np.array_equal(a, b)

    def test_accepts_seed_sequence(self):
        seq = SeedSequence(5)
        a = make_rng(SeedSequence(5)).random(10)
        b = make_rng(seq).random(10)
        assert np.array_equal(a, b)
