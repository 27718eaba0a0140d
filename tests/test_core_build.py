"""End-to-end tests of the general-graph distributed scheme (Theorem 3)."""

import math

import pytest

from repro.core import build_distributed_scheme
from repro.errors import InputError
from repro.graphs import grid_graph, random_connected_graph, ring_of_cliques
from repro.routing import measure_stretch, route_in_graph, sample_pairs


@pytest.fixture(scope="module")
def report():
    graph = random_connected_graph(160, seed=141)
    return graph, build_distributed_scheme(graph, 3, seed=7)


class TestValidation:
    def test_k1_rejected(self):
        graph = random_connected_graph(30, seed=1)
        with pytest.raises(InputError):
            build_distributed_scheme(graph, 1)

    def test_huge_epsilon_rejected(self):
        graph = random_connected_graph(30, seed=1)
        with pytest.raises(InputError):
            build_distributed_scheme(graph, 2, epsilon=0.5)

    def test_disconnected_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(3, 4, weight=1.0)
        with pytest.raises(InputError):
            build_distributed_scheme(g, 2)


class TestTheorem3Claims:
    def test_stretch_within_bound(self, report):
        graph, rep = report
        pairs = sample_pairs(list(graph.nodes), 150, seed=9)
        stretch = measure_stretch(rep.scheme, graph, pairs)
        assert stretch.max_stretch <= 4 * rep.k - 3 + 1e-9

    def test_labels_are_k_log_n(self, report):
        graph, rep = report
        n = graph.number_of_nodes()
        # O(k log n) with explicit constant: k entries of <= 3 + 2 log n.
        assert rep.scheme.max_label_words() <= rep.k * (4 + 2 * math.log2(n))

    def test_tables_near_claim6(self, report):
        graph, rep = report
        n = graph.number_of_nodes()
        bound = 4 * n ** (1 / rep.k) * math.log(n)  # trees per vertex (whp)
        assert rep.max_trees_per_vertex <= bound
        assert rep.scheme.max_table_words() <= 7 * bound

    def test_memory_within_polylog_of_table(self, report):
        graph, rep = report
        n = graph.number_of_nodes()
        polylog = math.log2(n) ** 2
        assert rep.max_memory_words <= 8 * polylog * rep.scheme.max_table_words()

    def test_every_pair_routable(self, report):
        graph, rep = report
        nodes = sorted(graph.nodes)
        for u in nodes[:6]:
            for v in nodes[-6:]:
                if u != v:
                    result = route_in_graph(rep.scheme, graph, u, v)
                    assert result.path[0] == u and result.path[-1] == v

    def test_headers_small(self, report):
        graph, rep = report
        n = graph.number_of_nodes()
        nodes = sorted(graph.nodes)
        result = route_in_graph(rep.scheme, graph, nodes[0], nodes[-1])
        assert result.header_words <= 3 + 2 * math.log2(n)

    def test_report_phases_recorded(self, report):
        _, rep = report
        assert rep.phase_rounds
        assert rep.rounds_parallel_estimate <= rep.rounds_sequential

    def test_virtual_size_near_sqrt(self, report):
        graph, rep = report
        # |A_{ceil(k/2)}| = n^{1-ceil(k/2)/k}; very loose concentration check.
        assert 1 <= rep.virtual_size <= graph.number_of_nodes() / 2


class TestGraphFamilies:
    @pytest.mark.parametrize("maker,kwargs", [
        (grid_graph, {"rows": 9, "cols": 9}),
        (ring_of_cliques, {"cliques": 6, "clique_size": 10}),
    ])
    def test_other_topologies(self, maker, kwargs):
        graph = maker(seed=3, **kwargs)
        rep = build_distributed_scheme(graph, 2, seed=3)
        pairs = sample_pairs(list(graph.nodes), 80, seed=4)
        stretch = measure_stretch(rep.scheme, graph, pairs)
        assert stretch.max_stretch <= 4 * 2 - 3 + 1e-9

    def test_k2_and_k4(self):
        graph = random_connected_graph(120, seed=142)
        for k in (2, 4):
            rep = build_distributed_scheme(graph, k, seed=5)
            pairs = sample_pairs(list(graph.nodes), 80, seed=6)
            stretch = measure_stretch(rep.scheme, graph, pairs)
            assert stretch.max_stretch <= 4 * k - 3 + 1e-9
