"""Unit tests for the forest communication primitives.

The ``setup`` fixture builds on the engine-parametrized ``engine`` fixture,
so every test here runs against both the reference and the fast path.
"""

import pytest

from repro.congest import Forest, convergecast_up
from repro.errors import InputError
from repro.graphs import (
    depths,
    random_connected_graph,
    spanning_tree_of,
    tree_profile,
)


@pytest.fixture()
def setup(engine):
    graph = random_connected_graph(70, seed=3)
    tree = spanning_tree_of(graph, style="dfs", seed=3)
    return engine(graph), tree, Forest.from_parent_map(tree)


class TestForest:
    def test_single_root(self, setup):
        _, tree, forest = setup
        assert len(forest.roots) == 1

    def test_depths_match_reference(self, setup):
        _, tree, forest = setup
        assert forest.depth == depths(tree)

    def test_children_sorted(self, setup):
        _, _, forest = setup
        for kids in forest.children.values():
            assert kids == sorted(kids, key=repr)

    def test_leaves_have_no_children(self, setup):
        _, _, forest = setup
        for leaf in forest.leaves():
            assert forest.children[leaf] == []

    def test_subtree_vertices_count(self, setup):
        _, tree, forest = setup
        root = forest.roots[0]
        assert len(forest.subtree_vertices(root)) == len(tree)

    def test_dangling_parent_rejected(self):
        with pytest.raises(InputError):
            Forest.from_parent_map({1: 2})

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            Forest.from_parent_map({1: 2, 2: 1})

    def test_multi_root_forest(self):
        forest = Forest.from_parent_map({1: None, 2: None, 3: 1})
        assert sorted(forest.roots) == [1, 2]


class TestConvergecastUp:
    def test_subtree_sizes(self, setup):
        net, tree, forest = setup
        sizes = convergecast_up(
            net, forest, lambda v: 1, lambda v, vals: 1 + sum(vals)
        )
        assert sizes == tree_profile(tree).sizes

    def test_max_leaf_depth(self, setup):
        net, tree, forest = setup
        d = depths(tree)
        deepest = convergecast_up(
            net, forest, lambda v: d[v], lambda v, vals: max(vals)
        )
        root = forest.roots[0]
        assert deepest[root] == max(d.values())

    def test_covers_every_vertex(self, setup):
        net, tree, forest = setup
        values = convergecast_up(net, forest, lambda v: 0, lambda v, vals: 0)
        assert set(values) == set(tree)

    def test_one_message_per_edge(self, setup):
        net, tree, forest = setup
        convergecast_up(net, forest, lambda v: 1, lambda v, vals: 1 + sum(vals))
        assert net.metrics.messages == len(tree) - 1
