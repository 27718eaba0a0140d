"""Unit tests for the TZ sampling hierarchy."""

import random

import pytest

from repro.errors import InputError
from repro.tz import sample_hierarchy, virtual_level


class TestSampling:
    def test_level_zero_is_everything(self):
        h = sample_hierarchy(range(100), 3, seed=1)
        assert h.levels[0] == set(range(100))

    def test_levels_nested(self):
        h = sample_hierarchy(range(200), 4, seed=2)
        for i in range(1, h.k):
            assert h.levels[i] <= h.levels[i - 1]

    def test_top_level_nonempty(self):
        for seed in range(10):
            h = sample_hierarchy(range(50), 4, seed=seed)
            assert h.levels[h.k - 1]

    def test_deterministic(self):
        a = sample_hierarchy(range(100), 3, seed=5)
        b = sample_hierarchy(range(100), 3, seed=5)
        assert a.levels == b.levels

    def test_seed_matters(self):
        a = sample_hierarchy(range(100), 3, seed=5)
        b = sample_hierarchy(range(100), 3, seed=6)
        assert a.levels != b.levels

    def test_k1_has_single_level(self):
        h = sample_hierarchy(range(10), 1, seed=0)
        assert len(h.levels) == 1

    def test_rejects_k0(self):
        with pytest.raises(InputError):
            sample_hierarchy(range(10), 0)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            sample_hierarchy([], 2)

    def test_probability_override(self):
        h = sample_hierarchy(range(100), 2, seed=1, probability=1.0)
        assert h.levels[1] == set(range(100))

    def test_bad_probability_rejected(self):
        with pytest.raises(InputError):
            sample_hierarchy(range(10), 2, probability=1.5)

    def test_sizes_concentrate(self):
        # |A_1| for n=1000, k=2 has mean sqrt(1000) ~ 31.6; allow wide slack.
        h = sample_hierarchy(range(1000), 2, seed=3)
        assert 10 <= len(h.levels[1]) <= 90

    def test_injected_rng_overrides_seed(self):
        a = sample_hierarchy(range(100), 3, seed=0, rng=random.Random(9))
        b = sample_hierarchy(range(100), 3, seed=99, rng=random.Random(9))
        assert a.levels == b.levels

    def test_injected_rng_stream_matters(self):
        a = sample_hierarchy(range(100), 3, rng=random.Random(9))
        b = sample_hierarchy(range(100), 3, rng=random.Random(10))
        assert a.levels != b.levels


class TestLevelOf:
    def test_level_of_consistent(self):
        h = sample_hierarchy(range(100), 3, seed=7)
        for v, lvl in h.level_of.items():
            assert v in h.levels[lvl]
            if lvl + 1 < h.k:
                assert v not in h.levels[lvl + 1]

    def test_vertices_at_level_partition(self):
        h = sample_hierarchy(range(100), 3, seed=7)
        total = sum(len(h.vertices_at_level(i)) for i in range(h.k))
        assert total == 100

    def test_set_at_beyond_k_is_empty(self):
        h = sample_hierarchy(range(10), 2, seed=0)
        assert h.set_at(2) == set()
        assert h.set_at(5) == set()

    def test_set_at_negative_raises(self):
        h = sample_hierarchy(range(10), 2, seed=0)
        with pytest.raises(InputError):
            h.set_at(-1)


class TestHelpers:
    def test_virtual_level_even_k(self):
        assert virtual_level(4) == 2

    def test_virtual_level_odd_k(self):
        assert virtual_level(3) == 2

    def test_virtual_level_k2(self):
        assert virtual_level(2) == 1
