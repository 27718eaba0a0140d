"""Tests for the EN16b-style tree-routing baseline and landmark routing."""

import math
import random

import pytest

from repro.baselines import (
    build_en16_tree_scheme,
    build_landmark_scheme,
    choose_landmarks,
)
from repro.congest import Network
from repro.errors import InputError
from repro.graphs import (
    dijkstra,
    random_connected_graph,
    spanning_tree_of,
)
from repro.routing import measure_stretch, sample_pairs
from repro.treerouting import build_distributed_tree_scheme


@pytest.fixture(scope="module")
def en16_built():
    graph = random_connected_graph(300, seed=151)
    tree = spanning_tree_of(graph, style="dfs", seed=151)
    net = Network(graph)
    build = build_en16_tree_scheme(net, tree, seed=8)
    return graph, tree, net, build


class TestEn16CostShape:
    def test_memory_larger_than_this_paper(self, en16_built):
        graph, tree, _, base = en16_built
        ours = build_distributed_tree_scheme(Network(graph), tree, seed=8)
        assert base.max_memory_words > ours.max_memory_words

    def test_memory_scales_like_sqrt_n(self, en16_built):
        graph, _, _, base = en16_built
        n = graph.number_of_nodes()
        # The broadcast virtual tree costs ~2|U(T)| words; |U(T)| ~ sqrt n.
        assert base.max_memory_words >= math.sqrt(n) / 2

    def test_labels_larger_than_this_paper(self, en16_built):
        graph, tree, _, base = en16_built
        ours = build_distributed_tree_scheme(Network(graph), tree, seed=8)
        assert base.scheme.max_label_words() >= ours.scheme.max_label_words()

    def test_tables_larger_than_this_paper(self, en16_built):
        graph, tree, _, base = en16_built
        ours = build_distributed_tree_scheme(Network(graph), tree, seed=8)
        assert base.scheme.max_table_words() > ours.scheme.max_table_words()


class TestLandmark:
    def test_landmark_count_default_sqrt(self):
        graph = random_connected_graph(100, seed=152)
        marks = choose_landmarks(graph, None, seed=1)
        assert len(marks) == 10

    def test_bad_count_rejected(self):
        graph = random_connected_graph(20, seed=152)
        with pytest.raises(InputError):
            choose_landmarks(graph, 0, seed=1)

    def test_injected_rng_overrides_seed(self):
        graph = random_connected_graph(100, seed=152)
        a = choose_landmarks(graph, 8, seed=0, rng=random.Random(4))
        b = choose_landmarks(graph, 8, seed=99, rng=random.Random(4))
        assert a == b and len(a) == 8

    def test_routing_delivers(self):
        graph = random_connected_graph(90, seed=153)
        scheme = build_landmark_scheme(graph, seed=2)
        pairs = sample_pairs(list(graph.nodes), 80, seed=3)
        report = measure_stretch(scheme, graph, pairs)
        assert report.pairs == 80
        assert report.max_stretch >= 1.0

    def test_route_through_landmark_bound(self):
        graph = random_connected_graph(90, seed=153)
        scheme = build_landmark_scheme(graph, seed=2)
        # stretch of u->v is at most (d(u,l)+d(l,v))/d(u,v) for l = v's mark.
        nodes = sorted(graph.nodes)
        u, v = nodes[3], nodes[60]
        entry = scheme.labels[v].entries[0]
        ell, d_lv, _ = entry
        exact_u, _ = dijkstra(graph, [u])
        from repro.routing import route_in_graph

        result = route_in_graph(scheme, graph, u, v)
        d_ul = dijkstra(graph, [ell])[0][u]
        assert result.length <= d_ul + d_lv + 1e-9

    def test_tables_are_theta_sqrt_n(self):
        graph = random_connected_graph(100, seed=154)
        scheme = build_landmark_scheme(graph, seed=2)
        # 10 landmarks x (1 + 5) words + 1
        assert scheme.max_table_words() >= 10 * 5
