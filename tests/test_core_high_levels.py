"""Tests for approximate pivots and approximate clusters (Claims 9-10)."""

import math

import pytest

from repro.congest import Network
from repro.core.high_levels import (
    HighLevelConfig,
    approximate_pivot_distances,
    build_high_level_clusters,
)
from repro.graphs import (
    VirtualGraphOracle,
    dijkstra,
    nearest_in_set,
    random_connected_graph,
)
from repro.hopsets import build_hopset
from repro.tz import compute_pivots, sample_hierarchy, virtual_level

EPS = 0.05


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(150, seed=131)
    k = 3
    hier = sample_hierarchy(list(graph.nodes), k, seed=131)
    boundary = virtual_level(k)
    virtual = sorted(hier.set_at(boundary), key=repr)
    net = Network(graph)
    oracle = VirtualGraphOracle(graph, virtual, graph.number_of_nodes())
    hopset = build_hopset(net, oracle, kappa=2, seed=131).hopset
    config = HighLevelConfig(epsilon=EPS, beta=10)
    return graph, k, hier, boundary, net, oracle, hopset, config


class TestApproximatePivots:
    def test_sandwich_inequality(self, setup):
        graph, k, hier, boundary, net, oracle, hopset, config = setup
        level = boundary + 1 if boundary + 1 < k else boundary
        level_set = hier.set_at(level)
        est = approximate_pivot_distances(
            net, oracle, hopset, level_set, config, level_index=level
        )
        exact, _ = nearest_in_set(graph, level_set)
        for v in graph.nodes:
            assert exact[v] - 1e-9 <= est[v]
            # Eq. 5 (whp): d̂ <= (1+eps) d; generous factor for small n.
            assert est[v] <= (1 + 5 * EPS) * exact[v] + 1e-9

    def test_empty_set_is_infinite(self, setup):
        graph, _, _, _, net, oracle, hopset, config = setup
        est = approximate_pivot_distances(
            net, oracle, hopset, set(), config, level_index=99
        )
        assert all(math.isinf(d) for d in est.values())

    def test_set_members_have_zero(self, setup):
        graph, k, hier, boundary, net, oracle, hopset, config = setup
        level_set = hier.set_at(boundary)
        est = approximate_pivot_distances(
            net, oracle, hopset, level_set, config, level_index=boundary
        )
        for v in level_set:
            assert est[v] == 0.0


class TestApproximateClusters:
    def _clusters(self, setup):
        graph, k, hier, boundary, net, oracle, hopset, config = setup
        trees, pivot_est = build_high_level_clusters(
            net, oracle, hopset, hier, config, boundary
        )
        return graph, k, hier, boundary, trees, pivot_est

    def test_claim9_subset_of_exact_cluster(self, setup):
        graph, k, hier, boundary, trees, _ = self._clusters(setup)
        pivots = compute_pivots(graph, hier)
        for root, tree in sorted(trees.items(), key=lambda kv: repr(kv[0]))[:6]:
            exact, _ = dijkstra(graph, [root])
            for u in tree.dist:
                # C̃(v) ⊆ C(v): d(u, root) < d(u, A_{i+1}).
                next_d = pivots.next_level_distance(tree.level, u)
                assert exact[u] < next_d + 1e-9, (root, u)

    def test_claim10_contains_c6eps(self, setup):
        graph, k, hier, boundary, trees, _ = self._clusters(setup)
        pivots = compute_pivots(graph, hier)
        for root, tree in sorted(trees.items(), key=lambda kv: repr(kv[0]))[:6]:
            exact, _ = dijkstra(graph, [root])
            for u in graph.nodes:
                next_d = pivots.next_level_distance(tree.level, u)
                if exact[u] < next_d / (1 + 6 * EPS) - 1e-9:
                    assert u in tree.dist, (root, u)

    def test_trees_are_valid_graph_trees(self, setup):
        graph, _, _, _, trees, _ = self._clusters(setup)
        for tree in trees.values():
            assert tree.parent[tree.root] is None
            for v, p in tree.parent.items():
                if p is not None:
                    assert graph.has_edge(v, p)
                    assert p in tree.dist

    def test_parent_chains_terminate_at_root(self, setup):
        graph, _, _, _, trees, _ = self._clusters(setup)
        n = graph.number_of_nodes()
        for tree in trees.values():
            for v in tree.dist:
                cursor, hops = v, 0
                while tree.parent[cursor] is not None:
                    cursor = tree.parent[cursor]
                    hops += 1
                    assert hops <= n
                assert cursor == tree.root

    def test_top_level_clusters_span_graph(self, setup):
        graph, k, hier, _, trees, _ = self._clusters(setup)
        for root in hier.vertices_at_level(k - 1):
            assert len(trees[root].dist) == graph.number_of_nodes()

    def test_estimates_dominate_true_distance(self, setup):
        graph, _, _, _, trees, _ = self._clusters(setup)
        for root, tree in sorted(trees.items(), key=lambda kv: repr(kv[0]))[:6]:
            exact, _ = dijkstra(graph, [root])
            for u, est in tree.dist.items():
                assert est >= exact[u] - 1e-9

    def test_tree_path_length_bounded_by_estimate(self, setup):
        graph, _, _, _, trees, _ = self._clusters(setup)
        for root, tree in sorted(trees.items(), key=lambda kv: repr(kv[0]))[:4]:
            for u in tree.dist:
                total, cursor = 0.0, u
                while tree.parent[cursor] is not None:
                    p = tree.parent[cursor]
                    total += graph[cursor][p]["weight"]
                    cursor = p
                assert total <= tree.dist[u] + 1e-9
