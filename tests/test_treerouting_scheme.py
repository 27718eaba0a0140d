"""End-to-end tests of the distributed tree-routing scheme (Theorem 2)."""

import math
import random

import pytest

from repro.congest import Network
from repro.errors import InputError
from repro.graphs import (
    random_connected_graph,
    spanning_tree_of,
    tree_distance,
)
from repro.routing import route_in_tree
from repro.treerouting import build_distributed_tree_scheme
from repro.tz import build_tree_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(220, seed=101)
    tree = spanning_tree_of(graph, style="dfs", seed=101)
    net = Network(graph)
    build = build_distributed_tree_scheme(net, tree, seed=11)
    return graph, tree, net, build


class TestEquivalenceWithCentralized:
    def test_tables_identical(self, built):
        _, tree, _, build = built
        assert build.scheme.tables == build_tree_scheme(tree).tables

    def test_labels_identical(self, built):
        _, tree, _, build = built
        assert build.scheme.labels == build_tree_scheme(tree).labels


class TestTheorem2Claims:
    def test_table_size_constant(self, built):
        _, _, _, build = built
        assert build.scheme.max_table_words() <= 5

    def test_label_size_logarithmic(self, built):
        _, tree, _, build = built
        assert build.scheme.max_label_words() <= 1 + 2 * math.log2(len(tree))

    def test_memory_logarithmic(self, built):
        _, tree, _, build = built
        assert build.max_memory_words <= 12 * math.log2(len(tree)) + 40

    def test_routing_exact(self, built):
        graph, tree, _, build = built
        weight = lambda u, v: graph[u][v]["weight"]
        rng = random.Random(3)
        for _ in range(120):
            u, v = rng.sample(list(tree), 2)
            result = route_in_tree(build.scheme, u, v, weight_of=weight)
            assert result.length == pytest.approx(
                tree_distance(tree, weight, u, v)
            )

    def test_root_distance_passthrough(self, built):
        graph, tree, _, _ = built
        net = Network(graph)
        build = build_distributed_tree_scheme(
            net, tree, seed=11, root_distance=lambda v: 7.0
        )
        assert all(t.root_distance == 7.0 for t in build.scheme.tables.values())


class TestRobustness:
    def test_non_spanning_subtree(self):
        graph = random_connected_graph(100, seed=102)
        # take the BFS tree of a vertex-induced connected subgraph
        import networkx as nx

        nodes = sorted(graph.nodes)
        sub_nodes = set()
        for comp_seed in nodes:
            candidate = set(nx.bfs_tree(graph, comp_seed, depth_limit=4).nodes)
            if len(candidate) >= 30:
                sub_nodes = candidate
                break
        root = sorted(sub_nodes)[0]
        tree = {root: None}
        for u, v in nx.bfs_edges(graph.subgraph(sub_nodes), root):
            tree[v] = u
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, seed=1)
        assert set(build.scheme.tables) == sub_nodes

    def test_tree_edge_not_in_graph_rejected(self):
        graph = random_connected_graph(30, seed=103)
        nodes = sorted(graph.nodes)
        bogus = {nodes[0]: None}
        for v in nodes[1:]:
            bogus[v] = nodes[0]  # star: mostly non-edges
        net = Network(graph)
        with pytest.raises(InputError):
            build_distributed_tree_scheme(net, bogus, seed=1)

    def test_path_tree_network(self):
        # The whole network *is* a deep caterpillar: D itself is large, the
        # construction must still terminate and be exact.
        import networkx as nx

        graph = nx.Graph()
        weights = random.Random(5)
        for i in range(40):
            if i + 1 < 40:
                graph.add_edge(i, i + 1, weight=weights.uniform(1.0, 10.0))
            graph.add_edge(i, 40 + i, weight=weights.uniform(1.0, 10.0))
        tree = spanning_tree_of(graph, style="bfs", seed=5)
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, seed=2)
        weight = lambda u, v: graph[u][v]["weight"]
        rng = random.Random(0)
        for _ in range(40):
            u, v = rng.sample(list(tree), 2)
            result = route_in_tree(build.scheme, u, v, weight_of=weight)
            assert result.length == pytest.approx(tree_distance(tree, weight, u, v))

    def test_q_one_degenerate_partition(self):
        graph = random_connected_graph(60, seed=104)
        tree = spanning_tree_of(graph, style="dfs", seed=104)
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, q=1.0, seed=1)
        assert build.scheme.tables == build_tree_scheme(tree).tables

    def test_tiny_tree(self):
        graph = random_connected_graph(5, seed=105)
        tree = spanning_tree_of(graph, style="bfs", seed=105)
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, seed=1)
        assert build.scheme.tables == build_tree_scheme(tree).tables

    def test_different_seeds_same_artifacts(self):
        # The sampled partition differs, the OUTPUT must not.
        graph = random_connected_graph(120, seed=106)
        tree = spanning_tree_of(graph, style="dfs", seed=106)
        a = build_distributed_tree_scheme(Network(graph), tree, seed=1)
        b = build_distributed_tree_scheme(Network(graph), tree, seed=2)
        assert a.scheme.tables == b.scheme.tables
        assert a.scheme.labels == b.scheme.labels
        assert a.partition.ut != b.partition.ut or len(tree) < 40
