"""Tests for the Theorem-3 parameter presets."""

import pytest

from repro.core.parameters import expected_virtual_size, preset
from repro.errors import InputError

REGIMES = ("balanced", "subpolynomial", "polylog-memory")


class TestExpectedVirtualSize:
    def test_k2_is_sqrt(self):
        assert expected_virtual_size(10000, 2) == 100

    def test_k4_is_sqrt(self):
        assert expected_virtual_size(10000, 4) == 100

    def test_odd_k_smaller_than_sqrt(self):
        assert expected_virtual_size(10000, 3) <= 100

    def test_at_least_one(self):
        assert expected_virtual_size(4, 2) >= 1


class TestPresets:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_all_regimes_produce_valid_kwargs(self, regime):
        p = preset(1000, 3, regime)
        kwargs = p.as_kwargs()
        assert kwargs["kappa"] >= 2
        assert 0 < kwargs["epsilon"] < 0.2
        assert kwargs["beta"] >= 3

    def test_polylog_regime_has_largest_kappa(self):
        n, k = 100_000, 4
        kappas = {r: preset(n, k, r).kappa for r in REGIMES}
        assert kappas["polylog-memory"] >= kappas["balanced"]

    def test_epsilon_shrinks_with_k(self):
        assert preset(1000, 4).epsilon <= preset(1000, 2).epsilon

    def test_unknown_regime_rejected(self):
        with pytest.raises(InputError):
            preset(100, 2, "warp-speed")

    def test_tiny_inputs_rejected(self):
        with pytest.raises(InputError):
            preset(2, 2)
        with pytest.raises(InputError):
            preset(100, 1)

    def test_presets_build_working_schemes(self):
        from repro.core import build_distributed_scheme
        from repro.graphs import random_connected_graph
        from repro.routing import measure_stretch, sample_pairs

        graph = random_connected_graph(150, seed=241)
        for regime in REGIMES:
            p = preset(150, 2, regime)
            report = build_distributed_scheme(graph, 2, seed=24, **p.as_kwargs())
            stretch = measure_stretch(
                report.scheme, graph, sample_pairs(list(graph.nodes), 60, seed=25)
            )
            assert stretch.max_stretch <= 5 + 1e-9, regime
