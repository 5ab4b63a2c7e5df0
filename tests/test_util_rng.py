"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import SeededRNG, derive_seed, spawn_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_different_keys_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_base_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_non_negative_63_bit(self):
        for seed in (0, 1, 2**40, 123456789):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63

    def test_no_keys(self):
        assert derive_seed(7) == derive_seed(7)


class TestSpawnRng:
    def test_returns_generator(self):
        assert isinstance(spawn_rng(3, "net"), np.random.Generator)

    def test_same_path_same_stream(self):
        a = spawn_rng(3, "net").random(5)
        b = spawn_rng(3, "net").random(5)
        assert np.allclose(a, b)

    def test_different_path_different_stream(self):
        a = spawn_rng(3, "net").random(5)
        b = spawn_rng(3, "other").random(5)
        assert not np.allclose(a, b)


class TestSeededRNG:
    def test_reproducible(self):
        a = SeededRNG(5, "x")
        b = SeededRNG(5, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_random_in_unit_interval(self):
        rng = SeededRNG(1)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_integers_range(self):
        rng = SeededRNG(1)
        values = {rng.integers(0, 5) for _ in range(200)}
        assert values <= {0, 1, 2, 3, 4}
        assert len(values) > 1

    def test_choice(self):
        rng = SeededRNG(1)
        assert rng.choice([42]) == 42
        assert rng.choice(["a", "b"]) in ("a", "b")

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRNG(1).choice([])

    def test_shuffle_preserves_elements(self):
        rng = SeededRNG(1)
        data = list(range(20))
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == data

    def test_jitter_non_negative(self):
        rng = SeededRNG(2)
        assert all(rng.jitter(1e-6) >= 0.0 for _ in range(100))

    def test_jitter_zero_scale(self):
        assert SeededRNG(2).jitter(0.0) == 0.0
        assert SeededRNG(2).jitter(-1.0) == 0.0

    def test_lognormal_factor_positive(self):
        rng = SeededRNG(2)
        assert all(rng.lognormal_factor(0.3) > 0.0 for _ in range(100))

    def test_lognormal_factor_zero_sigma_is_one(self):
        assert SeededRNG(2).lognormal_factor(0.0) == 1.0

    def test_exponential_zero_mean(self):
        assert SeededRNG(2).exponential(0.0) == 0.0

    def test_exponential_positive(self):
        rng = SeededRNG(2)
        assert all(rng.exponential(1.0) >= 0.0 for _ in range(50))

    def test_bernoulli_extremes(self):
        rng = SeededRNG(2)
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False

    def test_bernoulli_probability(self):
        rng = SeededRNG(2)
        hits = sum(rng.bernoulli(0.5) for _ in range(2000))
        assert 800 < hits < 1200

    def test_child_is_independent_but_deterministic(self):
        parent = SeededRNG(9, "p")
        child_a = parent.child("c")
        child_b = SeededRNG(9, "p").child("c")
        assert child_a.random() == child_b.random()

    def test_normal(self):
        rng = SeededRNG(3)
        samples = [rng.normal(10.0, 0.1) for _ in range(100)]
        assert 9.5 < sum(samples) / len(samples) < 10.5

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 0.0, -1.0])
    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_lognormal_block_is_successive_factors_bit_for_bit(self, sigma, n):
        block_rng, scalar_rng = SeededRNG(11, "rank", 3), SeededRNG(11, "rank", 3)
        block = block_rng.lognormal_block(sigma, n)
        scalars = [scalar_rng.lognormal_factor(sigma) for _ in range(n)]
        assert [factor.hex() for factor in block] == [factor.hex() for factor in scalars]
        # Both generators stand at the same point of the stream afterwards.
        assert block_rng.random().hex() == scalar_rng.random().hex()

    def test_lognormal_block_is_compact(self):
        block = SeededRNG(11).lognormal_block(0.05, 128)
        assert block.typecode == "d" and block.itemsize * len(block) == 1024
