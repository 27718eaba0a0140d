"""Unit tests for the centralized TZ tree scheme and compact routing scheme
(the Table 1/2 baselines)."""

import math
import random

import pytest

from repro.graphs import (
    random_connected_graph,
    spanning_tree_of,
    tree_distance,
)
from repro.routing import (
    measure_stretch,
    route_in_graph,
    route_in_tree,
    sample_pairs,
)
from repro.tz import (
    build_centralized_scheme,
    build_tree_scheme,
)


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(110, seed=31)


@pytest.fixture(scope="module")
def tree(graph):
    return spanning_tree_of(graph, style="dfs", seed=31)


@pytest.fixture(scope="module")
def tree_scheme(tree):
    return build_tree_scheme(tree)


class TestTreeScheme:
    def test_tables_are_constant_words(self, tree_scheme):
        assert tree_scheme.max_table_words() <= 5

    def test_labels_are_log_words(self, tree, tree_scheme):
        assert tree_scheme.max_label_words() <= 1 + 2 * math.log2(len(tree))

    def test_routing_is_exact(self, graph, tree, tree_scheme):
        rng = random.Random(0)
        weight = lambda u, v: graph[u][v]["weight"]
        for _ in range(80):
            u, v = rng.sample(list(tree), 2)
            result = route_in_tree(tree_scheme, u, v, weight_of=weight)
            assert result.length == pytest.approx(tree_distance(tree, weight, u, v))

    def test_routing_to_self_is_trivial(self, tree, tree_scheme):
        v = sorted(tree)[0]
        result = route_in_tree(tree_scheme, v, v)
        assert result.path == [v]

    def test_root_distance_recorded_when_requested(self, tree):
        scheme = build_tree_scheme(tree, root_distance=lambda v: 1.5)
        assert all(t.root_distance == 1.5 for t in scheme.tables.values())
        assert scheme.max_table_words() == 5

    def test_single_vertex_tree(self):
        scheme = build_tree_scheme({"only": None})
        result = route_in_tree(scheme, "only", "only")
        assert result.path == ["only"]


class TestCompactRouting:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_within_bound(self, graph, k):
        scheme = build_centralized_scheme(graph, k, seed=2)
        pairs = sample_pairs(list(graph.nodes), 120, seed=3)
        report = measure_stretch(scheme, graph, pairs)
        assert report.max_stretch <= max(1, 4 * k - 3) + 1e-9

    def test_k1_is_exact(self, graph):
        # k=1: single level, every cluster spans V, routing via SPT of the
        # destination's own tree => stretch 1.
        scheme = build_centralized_scheme(graph, 1, seed=2)
        pairs = sample_pairs(list(graph.nodes), 60, seed=4)
        report = measure_stretch(scheme, graph, pairs)
        assert report.max_stretch == pytest.approx(1.0)

    def test_label_entries_count_k(self, graph):
        scheme = build_centralized_scheme(graph, 3, seed=2)
        for label in scheme.labels.values():
            assert len(label.entries) == 3

    def test_tables_shrink_with_k(self, graph):
        t2 = build_centralized_scheme(graph, 2, seed=2).mean_table_words()
        t4 = build_centralized_scheme(graph, 4, seed=2).mean_table_words()
        assert t4 < t2

    def test_best_mode_no_worse_on_average(self, graph):
        scheme = build_centralized_scheme(graph, 3, seed=2)
        pairs = sample_pairs(list(graph.nodes), 100, seed=5)
        first = measure_stretch(scheme, graph, pairs)
        best = measure_stretch(scheme, graph, pairs, mode="best")
        assert best.mean_stretch <= first.mean_stretch + 1e-9

    def test_route_to_self(self, graph):
        scheme = build_centralized_scheme(graph, 2, seed=2)
        v = sorted(graph.nodes)[0]
        result = route_in_graph(scheme, graph, v, v)
        assert result.path == [v]

    def test_header_is_small(self, graph):
        scheme = build_centralized_scheme(graph, 3, seed=2)
        nodes = sorted(graph.nodes)
        result = route_in_graph(scheme, graph, nodes[0], nodes[50])
        assert result.header_words <= 2 + 2 * math.log2(len(nodes)) + 2

