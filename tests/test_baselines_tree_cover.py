"""Tests for the hierarchical tree-cover baseline ([ABNLP90]-style)."""

import random

import pytest

from repro.baselines import build_tree_cover_scheme, route_cover
from repro.baselines.tree_cover import theoretical_stretch
from repro.errors import InputError
from repro.graphs import (
    assign_log_uniform_weights,
    dijkstra,
    random_connected_graph,
)


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(130, seed=181)
    return graph, build_tree_cover_scheme(graph, seed=181)


class TestCoverStructure:
    def test_every_vertex_has_home_center_per_scale(self, built):
        graph, scheme = built
        for scale in scheme.scales:
            assert set(scale.home_center) == set(graph.nodes)

    def test_home_center_within_radius(self, built):
        graph, scheme = built
        for scale in scheme.scales:
            for c in set(scale.home_center.values()):
                dist, _ = dijkstra(graph, [c])
                for v, home in scale.home_center.items():
                    if home == c:
                        assert dist[v] <= scale.radius + 1e-9

    def test_centers_cover_via_their_trees(self, built):
        _, scheme = built
        for scale in scheme.scales:
            for v, c in scale.home_center.items():
                assert v in scale.trees[c].tables

    def test_top_scale_single_ball_spans(self, built):
        graph, scheme = built
        top = scheme.scales[-1]
        c = top.home_center[sorted(graph.nodes)[0]]
        assert len(top.trees[c].tables) == graph.number_of_nodes()

    def test_radii_geometric(self, built):
        _, scheme = built
        radii = [s.radius for s in scheme.scales]
        for a, b in zip(radii, radii[1:]):
            assert b == pytest.approx(2 * a)

    def test_bad_base_rejected(self, built):
        graph, _ = built
        with pytest.raises(InputError):
            build_tree_cover_scheme(graph, base=1.0)


class TestCoverRouting:
    def test_stretch_within_constant_bound(self, built):
        graph, scheme = built
        rng = random.Random(1)
        nodes = sorted(graph.nodes)
        bound = theoretical_stretch()
        for _ in range(100):
            u, v = rng.sample(nodes, 2)
            _, length = route_cover(scheme, graph, u, v)
            exact = dijkstra(graph, [u])[0][v]
            assert length <= bound * exact + 1e-9

    def test_delivers_everywhere(self, built):
        graph, scheme = built
        nodes = sorted(graph.nodes)
        for u in nodes[:4]:
            for v in nodes[-4:]:
                if u == v:
                    continue
                path, _ = route_cover(scheme, graph, u, v)
                assert path[0] == u and path[-1] == v
                for a, b in zip(path, path[1:]):
                    assert graph.has_edge(a, b)

    def test_self_route(self, built):
        graph, scheme = built
        v = sorted(graph.nodes)[0]
        assert route_cover(scheme, graph, v, v) == ([v], 0.0)


class TestAspectRatioDependence:
    def test_scales_grow_with_lambda(self):
        base = random_connected_graph(60, seed=182)
        narrow = assign_log_uniform_weights(base, 1.0, 4.0, seed=1)
        wide = assign_log_uniform_weights(base, 1.0, 10.0 ** 5, seed=1)
        s_narrow = build_tree_cover_scheme(narrow)
        s_wide = build_tree_cover_scheme(wide)
        # The paper's point: this family pays O(log Λ) scales; ours doesn't.
        assert len(s_wide.scales) >= len(s_narrow.scales) + 5

    def test_labels_grow_with_lambda(self):
        base = random_connected_graph(60, seed=183)
        narrow = assign_log_uniform_weights(base, 1.0, 4.0, seed=2)
        wide = assign_log_uniform_weights(base, 1.0, 10.0 ** 5, seed=2)
        assert (
            build_tree_cover_scheme(wide).max_label_words()
            > build_tree_cover_scheme(narrow).max_label_words()
        )
