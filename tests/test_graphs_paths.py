"""Unit tests for the shortest-path reference algorithms."""

import math

import networkx as nx
import pytest

from repro.errors import InputError
from repro.graphs import (
    bounded_bellman_ford,
    dijkstra,
    hop_counts,
    nearest_in_set,
    random_connected_graph,
)


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(90, seed=12)


class TestDijkstra:
    def test_matches_networkx(self, graph):
        src = sorted(graph.nodes)[0]
        dist, _ = dijkstra(graph, [src])
        expected = nx.single_source_dijkstra_path_length(graph, src, weight="weight")
        assert dist == pytest.approx(expected)

    def test_parents_form_shortest_path_tree(self, graph):
        src = sorted(graph.nodes)[0]
        dist, parent = dijkstra(graph, [src])
        for v, p in parent.items():
            if p is not None:
                assert dist[v] == pytest.approx(dist[p] + graph[p][v]["weight"])

    def test_multi_source(self, graph):
        sources = sorted(graph.nodes)[:3]
        dist, _ = dijkstra(graph, sources)
        for s in sources:
            assert dist[s] == 0.0

    def test_predicate_limits_exploration(self, graph):
        src = sorted(graph.nodes)[0]
        full, _ = dijkstra(graph, [src])
        radius = sorted(full.values())[len(full) // 3]
        limited, _ = dijkstra(graph, [src], predicate=lambda v, d: d < radius)
        # Within the ball the distances agree exactly.
        for v, d in limited.items():
            if d < radius:
                assert d == pytest.approx(full[v])

    def test_source_distance_zero(self, graph):
        src = sorted(graph.nodes)[4]
        dist, parent = dijkstra(graph, [src])
        assert dist[src] == 0.0 and parent[src] is None


class TestSetDistances:
    def test_distances_to_set(self, graph):
        targets = sorted(graph.nodes)[:4]
        dist, _ = nearest_in_set(graph, targets)
        per_target = [
            nx.single_source_dijkstra_path_length(graph, t, weight="weight")
            for t in targets
        ]
        for v in graph.nodes:
            assert dist[v] == pytest.approx(min(d[v] for d in per_target))

    def test_empty_set_gives_infinity(self, graph):
        dist, _ = nearest_in_set(graph, [])
        assert all(math.isinf(d) for d in dist.values())

    def test_nearest_in_set_owner_is_nearest(self, graph):
        targets = sorted(graph.nodes)[:5]
        dist, owner = nearest_in_set(graph, targets)
        for v in graph.nodes:
            assert owner[v] in targets
            d_owner = nx.dijkstra_path_length(graph, v, owner[v], weight="weight")
            assert d_owner == pytest.approx(dist[v])


class TestBoundedBellmanFord:
    def test_converges_to_dijkstra(self, graph):
        src = sorted(graph.nodes)[0]
        dist, _, _ = bounded_bellman_ford(graph, {src: 0.0}, graph.number_of_nodes())
        exact, _ = dijkstra(graph, [src])
        assert dist == pytest.approx(exact)

    def test_hop_bound_respected(self, graph):
        src = sorted(graph.nodes)[0]
        dist1, _, _ = bounded_bellman_ford(graph, {src: 0.0}, 1)
        for v, d in dist1.items():
            if v != src:
                assert graph.has_edge(src, v)
                assert d == pytest.approx(graph[src][v]["weight"])

    def test_monotone_in_hops(self, graph):
        src = sorted(graph.nodes)[0]
        d2, _, _ = bounded_bellman_ford(graph, {src: 0.0}, 2)
        d4, _, _ = bounded_bellman_ford(graph, {src: 0.0}, 4)
        for v in d2:
            assert d4.get(v, math.inf) <= d2[v] + 1e-12

    def test_zero_hops_keeps_sources_only(self, graph):
        src = sorted(graph.nodes)[0]
        dist, _, _ = bounded_bellman_ford(graph, {src: 0.0}, 0)
        assert dist == {src: 0.0}

    def test_negative_hops_raise(self, graph):
        with pytest.raises(InputError):
            bounded_bellman_ford(graph, {}, -1)

    def test_forward_gate_blocks(self, graph):
        src = sorted(graph.nodes)[0]
        dist, _, _ = bounded_bellman_ford(
            graph, {src: 0.0}, 10, forward_if=lambda v, d: False
        )
        assert dist == {src: 0.0}

    def test_early_termination_reports_iterations(self, graph):
        src = sorted(graph.nodes)[0]
        _, _, iters = bounded_bellman_ford(graph, {src: 0.0}, 10 ** 6)
        assert iters < graph.number_of_nodes()

    def test_seeded_estimates_respected(self, graph):
        a, b = sorted(graph.nodes)[:2]
        dist, _, _ = bounded_bellman_ford(graph, {a: 0.0, b: 100.0}, 3)
        assert dist[b] <= 100.0


class TestHopMeasures:
    def test_hop_counts_positive(self, graph):
        src = sorted(graph.nodes)[0]
        hops = hop_counts(graph, src)
        assert hops[src] == 0
        assert all(h >= 1 for v, h in hops.items() if v != src)

    def test_hop_counts_consistent_with_distance(self, graph):
        src = sorted(graph.nodes)[0]
        hops = hop_counts(graph, src)
        exact, _ = dijkstra(graph, [src])
        # A path with h hops exists of exactly the shortest length.
        for v, h in hops.items():
            d, _, _ = bounded_bellman_ford(graph, {src: 0.0}, h)
            assert d[v] == pytest.approx(exact[v])
