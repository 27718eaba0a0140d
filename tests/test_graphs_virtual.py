"""Unit tests for the implicit virtual-graph oracle (Appendix B setup)."""

import math

import pytest

from repro.errors import InputError
from repro.graphs import (
    VirtualGraphOracle,
    default_hop_bound,
    dijkstra,
    random_connected_graph,
    verify_claim7,
)
from repro.tz import sample_hierarchy


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(120, seed=17)
    hier = sample_hierarchy(list(graph.nodes), 2, seed=17)
    virtual = sorted(hier.set_at(1), key=repr)
    oracle = VirtualGraphOracle(graph, virtual, default_hop_bound(120))
    return graph, virtual, oracle


class TestHopBound:
    def test_capped_at_n(self):
        assert default_hop_bound(10) <= 10

    def test_grows_with_n(self):
        assert default_hop_bound(10000) > default_hop_bound(100)

    def test_rejects_bad_n(self):
        with pytest.raises(InputError):
            default_hop_bound(0)


class TestOracle:
    def test_edge_row_excludes_self(self, setup):
        _, virtual, oracle = setup
        row = oracle.edge_row(virtual[0])
        assert virtual[0] not in row

    def test_edge_row_targets_virtual_only(self, setup):
        _, virtual, oracle = setup
        row = oracle.edge_row(virtual[0])
        assert set(row) <= set(virtual)

    def test_row_distances_lower_bounded_by_true(self, setup):
        graph, virtual, oracle = setup
        exact, _ = dijkstra(graph, [virtual[0]])
        for u, d in oracle.edge_row(virtual[0]).items():
            assert d >= exact[u] - 1e-12

    def test_full_hop_bound_gives_exact_distances(self, setup):
        graph, virtual, _ = setup
        oracle = VirtualGraphOracle(graph, virtual, graph.number_of_nodes())
        exact, _ = dijkstra(graph, [virtual[0]])
        for u, d in oracle.edge_row(virtual[0]).items():
            assert d == pytest.approx(exact[u])

    def test_rows_are_cached(self, setup):
        _, virtual, oracle = setup
        before = oracle.edges_computed
        oracle.edge_row(virtual[0])
        after_first = oracle.edges_computed
        oracle.edge_row(virtual[0])
        assert oracle.edges_computed == after_first
        assert after_first >= before

    def test_non_virtual_row_rejected(self, setup):
        graph, virtual, oracle = setup
        outsider = next(v for v in graph.nodes if v not in set(virtual))
        with pytest.raises(InputError):
            oracle.edge_row(outsider)

    def test_bounded_distance_symmetric_enough(self, setup):
        _, virtual, oracle = setup
        a, b = virtual[0], virtual[1]
        assert oracle.edge_row(a).get(b, math.inf) == pytest.approx(
            oracle.edge_row(b).get(a, math.inf)
        )

    def test_relax_reaches_graph_vertices(self, setup):
        graph, virtual, oracle = setup
        dist, parent, _ = oracle.relax_virtual_edges({virtual[0]: 0.0})
        assert len(dist) > len(virtual)
        for v, p in parent.items():
            if p is not None:
                assert graph.has_edge(v, p)

    def test_materialize_is_metric_consistent(self, setup):
        graph, virtual, oracle = setup
        g_virtual = oracle.materialize()
        exact, _ = dijkstra(graph, [virtual[0]])
        for u in g_virtual.neighbors(virtual[0]):
            assert g_virtual[virtual[0]][u]["weight"] >= exact[u] - 1e-12


class TestClaim7:
    def test_holds_with_generous_bound(self, setup):
        graph, virtual, _ = setup
        # With B = n the claim is vacuous (no path has >= n hops).
        assert verify_claim7(graph, virtual, graph.number_of_nodes(), sample_sources=4)

    def test_violation_detected_with_tiny_bound(self):
        # A path graph with a single virtual vertex at one end must violate
        # Claim 7 for small B: long shortest paths avoid the virtual set.
        import networkx as nx

        g = nx.path_graph(30)
        for u, v in g.edges:
            g[u][v]["weight"] = 1.0
        assert not verify_claim7(g, [0], 3, sample_sources=4)
