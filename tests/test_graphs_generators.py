"""Unit tests for workload generators."""

import hashlib
import math
import random

import networkx as nx
import pytest

from repro.errors import InputError
from repro.graphs import (
    generators,
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


def _edge_digest(graph):
    h = hashlib.sha256()
    for u, v, w in graph.edges(data="weight"):
        h.update(f"{u} {v} {w!r}\n".encode())
    return h.hexdigest()


def _same_graph(ours, oracle):
    assert list(ours.nodes) == list(oracle.nodes)
    assert list(ours.edges) == list(oracle.edges)
    for v in oracle:
        assert list(ours.adj[v]) == list(oracle.adj[v]), v


class TestGnpStream:
    """The bulk G(n, p) draw is networkx's per-pair loop, edge for edge."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 50, 300, 1001])
    def test_same_graph_as_networkx_gnp(self, n):
        seeds = (0, 1, 7) if n < 1000 else (7,)
        for avg_degree in (0.5, 1.0, 3.0, 6.0, 40.0, 1e9):
            p = min(1.0, avg_degree / (n - 1))
            for seed in seeds:
                _same_graph(generators._gnp_graph(n, p, seed),
                            nx.gnp_random_graph(n, p, seed=seed))

    @pytest.mark.parametrize("p", [0.0, -0.5, 1e-12, 0.3, 0.999, 1.0, 1.5])
    def test_edge_densities(self, p):
        _same_graph(generators._gnp_graph(40, p, 3),
                    nx.gnp_random_graph(40, p, seed=3))

    def test_benchmark_size(self):
        _same_graph(generators._gnp_graph(2000, 6 / 1999, 7),
                    nx.gnp_random_graph(2000, 6 / 1999, seed=7))

    # sha256 of random_connected_graph's edges in order with weight reprs,
    # as drawn through nx.gnp_random_graph before the bulk generator.
    @pytest.mark.parametrize("n, digest", [
        (600, "dc54d7f9b68b2faabcb2579fba5bcdc2dd8009853ce459f74c6868fada3a07b7"),
        (2000, "d88074829cb57b7309af75289971cfc7ccdb266e2f3029b4d271353b7d9fa2b6"),
        (8000, "45037db32cf9e82bd54a52e3b8a05a7f8b34762084a6f67a02440a0c49b6cd57"),
    ])
    def test_benchmark_graphs_pinned(self, n, digest):
        assert _edge_digest(random_connected_graph(n, seed=7)) == digest

    def test_cost_pin(self, monkeypatch):
        """One ``random()`` per edge weight; the pairs are drawn in bulk."""

        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

            # Overriding random() alone would make choice() draw through it.
            def getrandbits(self, k):
                return super().getrandbits(k)

        def no_gnp(*args, **kwargs):
            raise AssertionError("nx.gnp_random_graph was called")

        expected = random_connected_graph(4000, seed=30)
        monkeypatch.setattr(random, "Random", CountingRandom)
        monkeypatch.setattr(nx, "gnp_random_graph", no_gnp)
        graph = random_connected_graph(4000, seed=30)
        assert _edge_digest(graph) == _edge_digest(expected)
        assert CountingRandom.calls <= graph.number_of_edges()


NAN = float("nan")


class TestGeneratorInputs:
    @pytest.mark.parametrize("n", [10.5, "10", None])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(InputError, match="n="):
            random_connected_graph(n)

    @pytest.mark.parametrize("avg_degree", [NAN, 0, -1.0, math.inf])
    def test_rejects_avg_degree(self, avg_degree):
        with pytest.raises(InputError, match="avg_degree"):
            random_connected_graph(10, avg_degree=avg_degree)

    @pytest.mark.parametrize("weight_range", [
        (-1.0, 1.0), (0.0, 0.0), (NAN, 1.0), (1.0, NAN), (5.0, 1.0), (1.0, math.inf),
    ])
    @pytest.mark.parametrize("family", ["random", "grid", "cliques"])
    def test_rejects_weight_range(self, family, weight_range):
        build = {
            "random": lambda: random_connected_graph(10, weight_range=weight_range),
            "grid": lambda: grid_graph(3, 3, weight_range=weight_range),
            "cliques": lambda: ring_of_cliques(3, 3, weight_range=weight_range),
        }[family]
        with pytest.raises(InputError, match="weight_range"):
            build()

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_grid(self, rows, cols):
        with pytest.raises(InputError, match="rows, cols"):
            grid_graph(rows, cols)

    def test_equal_weight_bounds_allowed(self):
        g = random_connected_graph(20, seed=1, weight_range=(2.0, 2.0))
        assert {w for _, _, w in g.edges(data="weight")} == {2.0}


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

    @pytest.mark.parametrize("style", ["shortest-path", "bfs", "dfs", "random"])
    def test_disconnected_graph_raises(self, style):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=1.0)
        with pytest.raises(InputError, match="vertex 2 is unreachable"):
            spanning_tree_of(g, style=style)

    def test_missing_root_raises(self):
        g = random_connected_graph(10, seed=1)
        with pytest.raises(InputError, match="root 99"):
            spanning_tree_of(g, root=99)

    def test_empty_graph_raises(self):
        with pytest.raises(InputError, match="empty"):
            spanning_tree_of(nx.Graph())

    @pytest.mark.parametrize("style", ["shortest-path", "bfs", "dfs", "random"])
    def test_one_vertex(self, style):
        g = nx.Graph()
        g.add_node("v")
        assert spanning_tree_of(g, style=style) == {"v": None}
