"""Unit tests for rooted-tree utilities (the TZ tree-routing ingredients)."""

import math

import pytest

from repro.errors import InputError
from repro.graphs import (
    children_map,
    depths,
    random_connected_graph,
    spanning_tree_of,
    tree_distance,
    tree_path,
    tree_profile,
    tree_root,
)
from repro.graphs.validation import assert_laminar_intervals


@pytest.fixture(scope="module")
def tree():
    g = random_connected_graph(120, seed=8)
    return spanning_tree_of(g, style="dfs", seed=8)


@pytest.fixture(scope="module")
def profile(tree):
    return tree_profile(tree)


class TestBasics:
    def test_tree_root_unique(self, tree):
        root = tree_root(tree)
        assert tree[root] is None

    def test_no_root_raises(self):
        with pytest.raises(InputError):
            tree_root({1: 2, 2: 1})

    def test_two_roots_raise(self):
        with pytest.raises(InputError):
            tree_root({1: None, 2: None})

    def test_children_map_inverse_of_parent(self, tree):
        children = children_map(tree)
        for v, kids in children.items():
            for c in kids:
                assert tree[c] == v

    def test_postorder_children_before_parents(self, tree, profile):
        order = profile.preorder[::-1]
        position = {v: i for i, v in enumerate(order)}
        for v, p in tree.items():
            if p is not None:
                assert position[v] < position[p]

    def test_depths_root_zero(self, tree):
        assert depths(tree)[tree_root(tree)] == 0


class TestSubtreeSizes:
    def test_root_size_is_n(self, tree, profile):
        sizes = profile.sizes
        assert sizes[tree_root(tree)] == len(tree)

    def test_leaves_have_size_one(self, tree, profile):
        children = children_map(tree)
        sizes = profile.sizes
        for v, kids in children.items():
            if not kids:
                assert sizes[v] == 1

    def test_parent_size_is_one_plus_children(self, tree, profile):
        children = children_map(tree)
        sizes = profile.sizes
        for v, kids in children.items():
            assert sizes[v] == 1 + sum(sizes[c] for c in kids)


class TestHeavyChildren:
    def test_heavy_child_is_a_child(self, tree, profile):
        children = children_map(tree)
        heavy = profile.heavy
        for v, h in heavy.items():
            if h is not None:
                assert h in children[v]

    def test_heavy_child_maximizes_size(self, tree, profile):
        children = children_map(tree)
        sizes = profile.sizes
        heavy = profile.heavy
        for v, h in heavy.items():
            if h is not None:
                assert sizes[h] == max(sizes[c] for c in children[v])

    def test_leaves_have_no_heavy_child(self, tree, profile):
        children = children_map(tree)
        heavy = profile.heavy
        for v, kids in children.items():
            if not kids:
                assert heavy[v] is None


class TestLightEdges:
    def test_at_most_log_n(self, tree, profile):
        lists = profile.light_edges
        bound = math.log2(len(tree))
        assert all(len(edges) <= bound for edges in lists.values())

    def test_root_has_empty_list(self, tree, profile):
        assert profile.light_edges[tree_root(tree)] == ()

    def test_edges_lie_on_root_path(self, tree, profile):
        lists = profile.light_edges
        root = tree_root(tree)
        for y, edges in lists.items():
            path = tree_path(tree, root, y)
            path_edges = set(zip(path, path[1:]))
            for e in edges:
                assert e in path_edges

    def test_light_edges_are_non_heavy(self, profile):
        heavy = profile.heavy
        lists = profile.light_edges
        for edges in lists.values():
            for (u, v) in edges:
                assert heavy[u] != v

    def test_heavy_path_vertices_share_list(self, profile):
        heavy = profile.heavy
        lists = profile.light_edges
        for v, h in heavy.items():
            if h is not None:
                assert lists[h] == lists[v]


class TestDfsIntervals:
    def test_interval_width_equals_subtree_size(self, profile):
        sizes = profile.sizes
        intervals = profile.intervals
        for v, (enter, exit_) in intervals.items():
            assert exit_ - enter + 1 == sizes[v]

    def test_root_interval_covers_everything(self, tree, profile):
        intervals = profile.intervals
        assert intervals[tree_root(tree)] == (1, len(tree))

    def test_entries_unique(self, profile):
        intervals = profile.intervals
        enters = [e for e, _ in intervals.values()]
        assert len(set(enters)) == len(enters)

    def test_laminar(self, profile):
        assert_laminar_intervals(profile.intervals)

    def test_child_inside_parent(self, tree, profile):
        intervals = profile.intervals
        for v, p in tree.items():
            if p is not None:
                pe, px = intervals[p]
                ce, cx = intervals[v]
                assert pe < ce and cx <= px

    def test_descendant_test_via_interval(self, tree, profile):
        intervals = profile.intervals
        root = tree_root(tree)
        # every vertex on a root path is an ancestor of the endpoint
        deepest = max(depths(tree), key=lambda v: (depths(tree)[v], repr(v)))
        path = tree_path(tree, root, deepest)
        de, _ = intervals[deepest]
        for anc in path:
            ae, ax = intervals[anc]
            assert ae <= de <= ax


class TestTreePaths:
    def test_path_endpoints(self, tree):
        nodes = sorted(tree)
        path = tree_path(tree, nodes[3], nodes[40])
        assert path[0] == nodes[3] and path[-1] == nodes[40]

    def test_path_edges_in_tree(self, tree):
        nodes = sorted(tree)
        path = tree_path(tree, nodes[5], nodes[17])
        for a, b in zip(path, path[1:]):
            assert tree[a] == b or tree[b] == a

    def test_path_to_self(self, tree):
        v = sorted(tree)[0]
        assert tree_path(tree, v, v) == [v]

    def test_tree_distance_symmetry(self, tree):
        nodes = sorted(tree)
        w = lambda a, b: 1.0
        assert tree_distance(tree, w, nodes[2], nodes[9]) == tree_distance(
            tree, w, nodes[9], nodes[2]
        )
