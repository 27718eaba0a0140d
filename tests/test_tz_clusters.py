"""Unit tests for pivots, clusters and bunches (Eq. 1, Claim 6)."""

import math

import pytest

from repro.graphs import dijkstra, random_connected_graph
from repro.tz import (
    all_cluster_trees,
    claim6_bound,
    compute_pivots,
    max_cluster_membership,
    sample_hierarchy,
)


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(100, seed=23)
    hier = sample_hierarchy(list(graph.nodes), 3, seed=23)
    pivots = compute_pivots(graph, hier)
    trees = all_cluster_trees(graph, hier, pivots)
    return graph, hier, pivots, trees


class TestPivots:
    def test_level_zero_pivot_is_self(self, setup):
        graph, hier, pivots, _ = setup
        for v in graph.nodes:
            assert pivots.pivot[0][v] == v
            assert pivots.dist[0][v] == 0.0

    def test_pivot_lies_in_level_set(self, setup):
        graph, hier, pivots, _ = setup
        for i in range(hier.k):
            level = hier.set_at(i)
            for v in graph.nodes:
                assert pivots.pivot[i][v] in level

    def test_pivot_distance_is_set_distance(self, setup):
        graph, hier, pivots, _ = setup
        for i in range(1, hier.k):
            level = sorted(hier.set_at(i), key=repr)
            for v in sorted(graph.nodes)[:10]:
                exact, _ = dijkstra(graph, level)
                assert pivots.dist[i][v] == pytest.approx(exact[v])

    def test_distances_monotone_in_level(self, setup):
        graph, hier, pivots, _ = setup
        for v in graph.nodes:
            for i in range(1, hier.k):
                assert pivots.dist[i][v] >= pivots.dist[i - 1][v] - 1e-12

    def test_next_level_distance_top_is_infinite(self, setup):
        graph, hier, pivots, _ = setup
        v = sorted(graph.nodes)[0]
        assert pivots.next_level_distance(hier.k - 1, v) == math.inf


class TestClusterDefinition:
    def test_membership_matches_eq1(self, setup):
        graph, hier, pivots, trees = setup
        # Check Eq. (1) directly for a few roots.
        for root in sorted(trees, key=repr)[:8]:
            tree = trees[root]
            exact, _ = dijkstra(graph, [root])
            for u in graph.nodes:
                in_cluster = exact[u] < pivots.next_level_distance(tree.level, u)
                assert (u in tree) == in_cluster, (root, u)

    def test_cluster_distances_exact(self, setup):
        graph, _, _, trees = setup
        for root in sorted(trees, key=repr)[:8]:
            tree = trees[root]
            exact, _ = dijkstra(graph, [root])
            for u, d in tree.dist.items():
                assert d == pytest.approx(exact[u])

    def test_root_in_own_cluster(self, setup):
        _, _, _, trees = setup
        for root, tree in trees.items():
            assert root in tree

    def test_tree_parents_are_members_and_edges(self, setup):
        graph, _, _, trees = setup
        for tree in trees.values():
            for v, p in tree.parent.items():
                if p is not None:
                    assert p in tree
                    assert graph.has_edge(v, p)

    def test_tree_parent_decreases_distance(self, setup):
        _, _, _, trees = setup
        for tree in trees.values():
            for v, p in tree.parent.items():
                if p is not None:
                    assert tree.dist[p] < tree.dist[v]

    def test_top_level_cluster_spans_graph(self, setup):
        graph, hier, _, trees = setup
        top = hier.vertices_at_level(hier.k - 1)
        assert top
        for root in top:
            assert len(trees[root].dist) == graph.number_of_nodes()


class TestBunches:
    def test_every_vertex_in_own_bunch(self, setup):
        graph, _, _, trees = setup
        for v in graph.nodes:
            assert v in trees[v]

    def test_claim6_bound_holds(self, setup):
        graph, hier, _, trees = setup
        _, worst = max_cluster_membership(trees)
        assert worst <= claim6_bound(graph.number_of_nodes(), hier.k)
