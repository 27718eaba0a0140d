"""Unit tests for U-sampling and the local-tree partition (Section 3)."""

import math

import pytest

from repro.errors import InputError
from repro.graphs import depths, random_connected_graph, spanning_tree_of, tree_root
from repro.treerouting import (
    default_sampling_probability,
    partition_tree,
)


@pytest.fixture(scope="module")
def tree():
    g = random_connected_graph(300, seed=61)
    return spanning_tree_of(g, style="dfs", seed=61)


class TestSamplingProbability:
    def test_single_tree_default(self):
        assert default_sampling_probability(400) == pytest.approx(1 / 20)

    def test_multi_tree_smaller(self):
        assert default_sampling_probability(400, 4) == pytest.approx(1 / 40)

    def test_capped_at_one(self):
        assert default_sampling_probability(1) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            default_sampling_probability(0)


class TestPartition:
    def test_root_always_in_ut(self, tree):
        part = partition_tree(tree, seed=3)
        assert tree_root(tree) in part.ut

    def test_local_forest_roots_are_ut(self, tree):
        part = partition_tree(tree, seed=3)
        assert set(part.local_forest.roots) == part.ut

    def test_local_forest_preserves_other_parents(self, tree):
        part = partition_tree(tree, seed=3)
        for v, p in part.local_forest.parent.items():
            if v not in part.ut:
                assert p == tree[v]

    def test_local_depth_bounded_whp(self, tree):
        n = len(tree)
        q = default_sampling_probability(n)
        part = partition_tree(tree, q=q, seed=3)
        # Local trees are O(log n / q) deep whp.
        assert part.max_local_depth <= 6 * math.log(n) / q

    def test_deterministic_per_seed_and_salt(self, tree):
        a = partition_tree(tree, seed=3, salt="x")
        b = partition_tree(tree, seed=3, salt="x")
        c = partition_tree(tree, seed=3, salt="y")
        assert a.ut == b.ut
        assert a.ut != c.ut or len(tree) < 50  # salts decorrelate whp

    def test_q_one_puts_everyone_in_ut(self, tree):
        part = partition_tree(tree, q=1.0, seed=3)
        assert part.ut == set(tree)
        assert part.max_local_depth == 0

    def test_bad_q_rejected(self, tree):
        with pytest.raises(InputError):
            partition_tree(tree, q=0.0)

    def test_local_root_reference_covers_tree(self, tree):
        part = partition_tree(tree, seed=3)
        roots = part.local_root_reference()
        assert set(roots) == set(tree)
        for v, r in roots.items():
            assert r in part.ut

    def test_virtual_parent_reference_points_to_ut(self, tree):
        part = partition_tree(tree, seed=3)
        vpar = part.virtual_parent_reference()
        root = tree_root(tree)
        assert vpar[root] is None
        for x, p in vpar.items():
            if x != root:
                assert p in part.ut

    def test_virtual_tree_depth_compresses(self, tree):
        # The virtual tree has far fewer levels than T itself.
        part = partition_tree(tree, seed=3)
        vpar = part.virtual_parent_reference()
        def vdepth(x):
            d = 0
            while vpar[x] is not None:
                x = vpar[x]
                d += 1
            return d
        max_vdepth = max(vdepth(x) for x in part.ut)
        tree_depth = max(depths(tree).values())
        assert max_vdepth < tree_depth
