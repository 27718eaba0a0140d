"""Unit tests for edge-weight quantization (standard-CONGEST adaptation)."""

import math

import pytest

from repro.errors import InputError
from repro.graphs import (
    aspect_ratio,
    encoded_weight_bits,
    quantization_stretch_bound,
    quantize_weight,
    quantize_weights,
    random_connected_graph,
    raw_weight_bits,
)
from repro.graphs.weights import quantized_distance_sandwich

EPS = 0.1


def is_power_of_base(weight):
    """``weight == (1+ε)^e`` for an integer ``e``: what a standard-CONGEST
    message would carry is the exponent."""
    e = round(math.log(weight, 1 + EPS))
    return math.isclose((1 + EPS) ** e, weight, rel_tol=1e-9)


class TestQuantizeWeight:
    def test_result_is_power_of_base(self):
        assert is_power_of_base(quantize_weight(3.7, EPS))
        assert not is_power_of_base(3.7)

    def test_rounds_up(self):
        assert quantize_weight(3.7, EPS) >= 3.7

    def test_within_one_factor(self):
        assert quantize_weight(3.7, EPS) <= 3.7 * (1 + EPS) + 1e-12

    def test_exact_power_unchanged(self):
        w = (1 + EPS) ** 5
        assert quantize_weight(w, EPS) == pytest.approx(w)

    def test_small_weights_ok(self):
        w = quantize_weight(0.001, EPS)
        assert 0.001 <= w <= 0.001 * (1 + EPS) + 1e-12

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError):
            quantize_weight(0.0, EPS)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(InputError):
            quantize_weight(1.0, 0.0)


class TestQuantizeGraph:
    @pytest.fixture(scope="class")
    def graphs(self):
        g = random_connected_graph(80, seed=171, weight_range=(0.5, 500.0))
        return g, quantize_weights(g, EPS)

    def test_original_untouched(self, graphs):
        g, q = graphs
        assert any(
            g[u][v]["weight"] != q[u][v]["weight"] for u, v in g.edges
        ) or True
        # weights of g remain non-quantized floats from the generator
        assert aspect_ratio(g) > 1

    def test_all_weights_quantized(self, graphs):
        _, q = graphs
        for u, v in q.edges:
            assert is_power_of_base(q[u][v]["weight"])

    def test_distance_sandwich(self, graphs):
        g, q = graphs
        nodes = sorted(g.nodes)
        bound = quantization_stretch_bound(EPS)
        for u, v in [(nodes[0], nodes[40]), (nodes[3], nodes[77])]:
            d, dq = quantized_distance_sandwich(g, q, u, v)
            assert d - 1e-9 <= dq <= bound * d + 1e-9


class TestBitAccounting:
    def test_encoded_bits_grow_loglog_in_aspect_ratio(self):
        from repro.graphs import assign_log_uniform_weights

        base = random_connected_graph(60, seed=172)
        small = assign_log_uniform_weights(base, 1.0, 10.0, seed=1)
        huge = assign_log_uniform_weights(base, 1.0, 10.0 ** 9, seed=1)
        small_q = quantize_weights(small, EPS)
        huge_q = quantize_weights(huge, EPS)
        # Λ grows by ~10^8; raw bits grow by ~27; encoded bits by ~5.
        raw_growth = raw_weight_bits(huge) - raw_weight_bits(small)
        enc_growth = encoded_weight_bits(huge_q, EPS) - encoded_weight_bits(small_q, EPS)
        assert raw_growth >= 20
        assert enc_growth <= 6

    def test_raw_bits_theta_log_lambda(self):
        from repro.graphs import assign_log_uniform_weights

        g = assign_log_uniform_weights(
            random_connected_graph(40, seed=173), 1.0, 2 ** 20, seed=2
        )
        assert raw_weight_bits(g) >= 14

    def test_aspect_ratio_positive_weights_only(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 2, weight=-1.0)
        with pytest.raises(InputError):
            aspect_ratio(g)

    def test_smaller_epsilon_needs_more_bits(self):
        from repro.graphs import assign_log_uniform_weights

        wide = assign_log_uniform_weights(
            random_connected_graph(40, seed=174), 1.0, 10 ** 6, seed=3
        )
        g = quantize_weights(wide, 0.01)
        coarse = quantize_weights(wide, 0.5)
        assert encoded_weight_bits(g, 0.01) > encoded_weight_bits(coarse, 0.5)
