"""Tests for parallel multi-tree construction (Theorem 2, second claim)."""

import math
import random

import pytest

import repro.core.build as core_build
import repro.treerouting.multi as multi
from repro.congest import Network, build_bfs_tree
from repro.core import build_distributed_scheme
from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of, tree_distance
from repro.routing import route_in_tree
from repro.treerouting.multi import build_tree_schemes, max_trees_per_vertex
from repro.tz import all_cluster_trees, build_tree_scheme, compute_pivots, sample_hierarchy


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(200, seed=111)
    trees = {
        f"t{i}": spanning_tree_of(graph, style="random", seed=200 + i)
        for i in range(4)
    }
    net = Network(graph)
    build = build_tree_schemes(net, trees, seed=4)
    return graph, trees, net, build


class TestMultiTree:
    def test_all_schemes_built(self, built):
        _, trees, _, build = built
        assert set(build.schemes) == set(trees)

    def test_s_measured(self, built):
        _, trees, _, build = built
        assert build.s == max_trees_per_vertex(trees) == len(trees)

    def test_q_uses_s(self, built):
        graph, trees, _, build = built
        n = graph.number_of_nodes()
        assert build.q == pytest.approx(1.0 / math.sqrt(len(trees) * n))

    def test_every_scheme_matches_centralized(self, built):
        _, trees, _, build = built
        for tid, tree in trees.items():
            cent = build_tree_scheme(tree, tree_id=tid)
            assert build.schemes[tid].tables == cent.tables
            assert build.schemes[tid].labels == cent.labels

    def test_routing_exact_in_every_tree(self, built):
        graph, trees, _, build = built
        weight = lambda u, v: graph[u][v]["weight"]
        rng = random.Random(1)
        for tid, tree in trees.items():
            for _ in range(25):
                u, v = rng.sample(list(tree), 2)
                result = route_in_tree(build.schemes[tid], u, v, weight_of=weight)
                assert result.length == pytest.approx(
                    tree_distance(tree, weight, u, v)
                )

    def test_parallel_rounds_below_sequential(self, built):
        _, _, _, build = built
        assert build.rounds_parallel < build.rounds_sequential

    def test_rounds_parallel_is_window_plus_slowest_tree(self, built):
        graph, _, _, build = built
        n = graph.number_of_nodes()
        window = math.ceil(math.sqrt(build.s * n) * max(1.0, math.log(n)))
        assert build.window == window
        assert build.rounds_parallel == window + max(build.per_tree_rounds.values())

    def test_rounds_pinned(self, built):
        """Trees are ordered and salted by ``repr``: the schedule is the
        same under any hash seed."""
        _, _, _, build = built
        assert build.per_tree_rounds == {"t0": 462, "t1": 487, "t2": 531, "t3": 729}
        assert build.rounds_sequential == sum(build.per_tree_rounds.values())

    def test_memory_scales_with_s_not_sqrt_n(self, built):
        graph, trees, net, _ = built
        n = graph.number_of_nodes()
        s = len(trees)
        assert net.max_memory() <= 12 * s * math.log2(n) + 60

    def test_empty_trees_rejected(self, built):
        graph, _, _, _ = built
        with pytest.raises(InputError):
            build_tree_schemes(Network(graph), {}, seed=1)


@pytest.fixture(scope="module")
def clusters():
    graph = random_connected_graph(100, seed=281)
    hierarchy = sample_hierarchy(list(graph.nodes), 2, seed=281)
    trees = all_cluster_trees(graph, hierarchy, compute_pivots(graph, hierarchy))
    net = Network(graph)
    build = build_tree_schemes(
        net, {root: tree.parent for root, tree in trees.items()},
        seed=28, bfs=build_bfs_tree(net),
    )
    return trees, build


class TestClusterTrees:
    """The general scheme's use: one scheme per cluster tree."""

    def test_one_scheme_per_cluster(self, clusters):
        trees, build = clusters
        assert set(build.schemes) == set(trees)

    def test_round_counts(self, clusters):
        trees, build = clusters
        assert set(build.per_tree_rounds) == set(trees)
        assert max(build.per_tree_rounds.values()) <= build.rounds_sequential

    def test_max_trees_per_vertex_measured(self, clusters):
        trees, build = clusters
        counts = {}
        for tree in trees.values():
            for v in tree.dist:
                counts[v] = counts.get(v, 0) + 1
        assert build.s == max(counts.values())


class TestGeneralScheme:
    """``build_distributed_scheme`` reads its tree phase from the driver."""

    def test_core_calls_the_one_driver(self):
        assert core_build.build_tree_schemes is multi.build_tree_schemes

    def test_report_reads_the_driver(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(multi.build_tree_schemes(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(core_build, "build_tree_schemes", spy)
        report = build_distributed_scheme(
            random_connected_graph(120, seed=5), 2, seed=5)
        (trees,) = seen
        assert report.max_trees_per_vertex == trees.s
        assert report.rounds_parallel_estimate == (
            report.rounds_sequential - trees.rounds_sequential
            + trees.rounds_parallel)
