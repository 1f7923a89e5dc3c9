"""Tests for RNG normalisation and child-stream derivation."""

import numpy as np
import pytest

from repro.util.rng import derive_rng, ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 10**9)
        b = ensure_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_returns_requested_count(self):
        children = spawn_rngs(0, 5)
        assert len(children) == 5
        assert all(isinstance(c, np.random.Generator) for c in children)

    def test_children_are_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_deterministic_for_seeded_parent(self):
        first = [g.integers(0, 10**9) for g in spawn_rngs(123, 3)]
        second = [g.integers(0, 10**9) for g in spawn_rngs(123, 3)]
        assert first == second

    def test_zero_children_allowed(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(7, "link", 3).integers(0, 10**9)
        b = derive_rng(7, "link", 3).integers(0, 10**9)
        assert a == b

    def test_different_keys_different_stream(self):
        a = derive_rng(7, "link", 3).integers(0, 10**9)
        b = derive_rng(7, "link", 4).integers(0, 10**9)
        assert a != b

    def test_string_and_int_keys_supported(self):
        assert isinstance(derive_rng(1, "availability", 0), np.random.Generator)

    def test_invalid_key_type_rejected(self):
        with pytest.raises(TypeError):
            derive_rng(1, 3.14)
