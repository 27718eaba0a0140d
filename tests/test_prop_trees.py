"""Property-based tests (hypothesis) for the tree machinery.

Random rooted trees are generated from Prüfer-like parent arrays: vertex i
(i >= 1) gets a parent drawn from [0, i), which yields every labelled rooted
tree shape with positive probability.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.graphs import (
    children_map,
    depths,
    tree_path,
    tree_profile,
    tree_root,
)
from repro.graphs.validation import assert_laminar_intervals


@st.composite
def parent_maps(draw, min_size=2, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    parent = {0: None}
    for v in range(1, n):
        parent[v] = draw(st.integers(min_value=0, max_value=v - 1))
    return parent


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_subtree_sizes_sum_identity(parent):
    sizes = tree_profile(parent).sizes
    children = children_map(parent)
    for v, kids in children.items():
        assert sizes[v] == 1 + sum(sizes[c] for c in kids)


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_dfs_intervals_are_laminar_and_tight(parent):
    profile = tree_profile(parent)
    intervals, sizes = profile.intervals, profile.sizes
    assert_laminar_intervals(intervals)
    for v, (enter, exit_) in intervals.items():
        assert exit_ - enter + 1 == sizes[v]
    enters = sorted(e for e, _ in intervals.values())
    assert enters == list(range(1, len(parent) + 1))


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_interval_containment_iff_ancestry(parent):
    intervals = tree_profile(parent).intervals
    depth = depths(parent)
    root = tree_root(parent)
    for v in parent:
        path = set(tree_path(parent, root, v))
        ve, _ = intervals[v]
        for u in parent:
            ue, ux = intervals[u]
            contained = ue <= ve <= ux
            assert contained == (u in path)


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_light_edges_at_most_log2_n(parent):
    lists = tree_profile(parent).light_edges
    bound = math.log2(len(parent))
    for edges in lists.values():
        assert len(edges) <= bound


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_non_heavy_subtree_at_most_half(parent):
    # The defining property behind the log n bound: a non-heavy child's
    # subtree has at most half the vertices of its parent's subtree.
    profile = tree_profile(parent)
    sizes, heavy = profile.sizes, profile.heavy
    children = children_map(parent)
    for v, kids in children.items():
        for c in kids:
            if c != heavy[v]:
                assert sizes[c] <= sizes[v] / 2


@given(parent_maps())
@settings(max_examples=60, deadline=None)
def test_postorder_is_a_permutation(parent):
    order = tree_profile(parent).preorder[::-1]
    assert sorted(order) == sorted(parent)


@given(parent_maps(), st.data())
@settings(max_examples=60, deadline=None)
def test_tree_path_is_simple_and_connects(parent, data):
    nodes = sorted(parent)
    u = data.draw(st.sampled_from(nodes))
    v = data.draw(st.sampled_from(nodes))
    path = tree_path(parent, u, v)
    assert path[0] == u and path[-1] == v
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert parent[a] == b or parent[b] == a
