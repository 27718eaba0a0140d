"""Unit tests for the hopset container, construction, and measurement."""

import math

import pytest

from repro.congest import Network
from repro.errors import InputError
from repro.graphs import VirtualGraphOracle, default_hop_bound, dijkstra, random_connected_graph
from repro.hopsets import (
    Hopset,
    build_hopset,
    measure_hopbound,
    union_graph,
)
from repro.tz import sample_hierarchy


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(150, seed=41)
    hier = sample_hierarchy(list(graph.nodes), 2, seed=41)
    virtual = sorted(hier.set_at(1), key=repr)
    oracle = VirtualGraphOracle(graph, virtual, default_hop_bound(150))
    net = Network(graph)
    build = build_hopset(net, oracle, kappa=2, seed=41)
    return graph, virtual, oracle, net, build


class TestHopsetContainer:
    def test_add_edge_and_size(self):
        h = Hopset(virtual_vertices=[1, 2, 3])
        h.add_edge(1, 2, 5.0, [1, 9, 2])
        assert h.size == 1

    def test_add_edge_improvement_keeps_min(self):
        h = Hopset(virtual_vertices=[1, 2])
        h.add_edge(1, 2, 5.0, [1, 9, 2])
        h.add_edge(1, 2, 3.0, [1, 2])
        assert h.owned[1][2] == 3.0
        h.add_edge(1, 2, 7.0, [1, 8, 2])
        assert h.owned[1][2] == 3.0

    def test_self_loop_rejected(self):
        h = Hopset(virtual_vertices=[1])
        with pytest.raises(InputError):
            h.add_edge(1, 1, 1.0, [1, 1])

    def test_path_endpoints_validated(self):
        h = Hopset(virtual_vertices=[1, 2])
        with pytest.raises(InputError):
            h.add_edge(1, 2, 1.0, [2, 1])

    def test_neighbors_sees_both_directions(self):
        h = Hopset(virtual_vertices=[1, 2])
        h.add_edge(1, 2, 5.0, [1, 2])
        assert h.neighbors(2) == {1: 5.0}

    def test_out_degree_counts_owned_only(self):
        h = Hopset(virtual_vertices=[1, 2, 3])
        h.add_edge(1, 2, 5.0, [1, 2])
        h.add_edge(1, 3, 6.0, [1, 3])
        assert h.out_degree(1) == 2
        assert h.out_degree(2) == 0


class TestConstruction:
    def test_paths_are_real_graph_paths(self, setup):
        graph, _, _, _, build = setup
        build.hopset.verify_paths(graph)

    def test_edge_weights_are_exact_distances(self, setup):
        graph, _, _, _, build = setup
        for owner, other, w in build.hopset.edges():
            exact = dijkstra(graph, [owner])[0][other]
            assert w == pytest.approx(exact)

    def test_out_degree_within_expected(self, setup):
        graph, virtual, _, _, build = setup
        # Õ(κ m^{1/κ}): the paper's Õ(n^{ρ/2}) with m = Θ(sqrt(n)).
        m, kappa = len(virtual), build.kappa
        expected = kappa * m ** (1.0 / kappa) * max(1.0, math.log(max(2, m))) + kappa
        assert build.hopset.max_out_degree() <= 3 * expected

    def test_rounds_were_charged(self, setup):
        _, _, _, net, build = setup
        assert build.charged_rounds > 0
        assert net.metrics.charged_rounds >= build.charged_rounds

    def test_memory_charged_on_virtual_vertices(self, setup):
        _, virtual, _, net, _ = setup
        assert all(net.mem(v).high_water > 0 for v in virtual)

    def test_virtual_graph_left_implicit(self, setup):
        # The construction may compute edge rows, but must not require the
        # full m^2 edge set.
        _, virtual, oracle, _, _ = setup
        assert oracle.edges_computed <= len(virtual) * (len(virtual) - 1)


class TestHopbound:
    def test_hopset_inequality_holds(self, setup):
        graph, virtual, oracle, _, build = setup
        virt = oracle.materialize()
        beta = measure_hopbound(virt, build.hopset, epsilon=0.1, sample_sources=6)
        assert 1 <= beta <= 64

    def test_union_graph_no_shortcuts_below_metric(self, setup):
        graph, virtual, oracle, _, build = setup
        virt = oracle.materialize()
        union = union_graph(virt, build.hopset)
        src = virtual[0]
        exact_g, _ = dijkstra(graph, [src])
        union_dist, _ = dijkstra(union, [src])
        for v in virtual:
            assert union_dist[v] >= exact_g[v] - 1e-9

    def test_bigger_kappa_means_less_memory(self):
        graph = random_connected_graph(200, seed=42)
        hier = sample_hierarchy(list(graph.nodes), 2, seed=42)
        virtual = sorted(hier.set_at(1), key=repr)
        degs = []
        for kappa in (1, 3):
            oracle = VirtualGraphOracle(graph, virtual, default_hop_bound(200))
            build = build_hopset(Network(graph), oracle, kappa=kappa, seed=42)
            degs.append(build.hopset.max_out_degree())
        assert degs[1] <= degs[0]
