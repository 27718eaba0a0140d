"""Unit tests for workload generators."""

import networkx as nx
import pytest

from repro.errors import InputError
from repro.graphs import (
    grid_graph,
    random_connected_graph,
    ring_of_cliques,
    spanning_tree_of,
    tree_root,
)
from repro.graphs.validation import require_tree_in_graph, require_weighted_connected


class TestRandomConnected:
    def test_connected(self):
        g = random_connected_graph(100, seed=1)
        assert nx.is_connected(g)

    def test_weighted(self):
        g = random_connected_graph(50, seed=1)
        assert all("weight" in d for _, _, d in g.edges(data=True))

    def test_deterministic(self):
        a = random_connected_graph(50, seed=7)
        b = random_connected_graph(50, seed=7)
        assert sorted(a.edges) == sorted(b.edges)

    def test_seed_changes_graph(self):
        a = random_connected_graph(50, seed=7)
        b = random_connected_graph(50, seed=8)
        assert sorted(a.edges) != sorted(b.edges)

    def test_rejects_tiny_n(self):
        with pytest.raises(InputError):
            random_connected_graph(1)

    def test_weight_range_respected(self):
        g = random_connected_graph(50, seed=2, weight_range=(5.0, 6.0))
        for _, _, d in g.edges(data=True):
            assert 5.0 <= d["weight"] <= 6.0


class TestOtherFamilies:
    def test_grid_size(self):
        assert grid_graph(4, 5).number_of_nodes() == 20

    def test_grid_connected_weighted(self):
        require_weighted_connected(grid_graph(6, 6, seed=1))

    def test_ring_of_cliques(self):
        g = ring_of_cliques(4, 5, seed=1)
        assert g.number_of_nodes() == 20
        require_weighted_connected(g)

    def test_ring_of_cliques_validates(self):
        with pytest.raises(InputError):
            ring_of_cliques(2, 5)


class TestSpanningTrees:
    @pytest.mark.parametrize("style", ["shortest-path", "bfs", "dfs", "random"])
    def test_is_spanning_tree_of_graph(self, style):
        g = random_connected_graph(80, seed=4)
        parent = spanning_tree_of(g, style=style, seed=4)
        assert set(parent) == set(g.nodes)
        require_tree_in_graph(g, parent)

    def test_unknown_style_raises(self):
        g = random_connected_graph(20, seed=0)
        with pytest.raises(InputError):
            spanning_tree_of(g, style="bogus")

    def test_dfs_is_deeper_than_bfs(self):
        from repro.graphs import depths

        g = random_connected_graph(200, seed=5)
        dfs = spanning_tree_of(g, style="dfs", seed=5)
        bfs = spanning_tree_of(g, style="bfs", seed=5)
        assert max(depths(dfs).values()) > max(depths(bfs).values())

    def test_explicit_root(self):
        g = random_connected_graph(30, seed=6)
        root = sorted(g.nodes)[5]
        parent = spanning_tree_of(g, style="bfs", root=root)
        assert tree_root(parent) == root
