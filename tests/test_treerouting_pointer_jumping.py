"""Unit tests for the pointer-jumping engine (Algorithms 1/3/6 skeleton)."""

import pytest

from repro.congest import Network, build_bfs_tree
from repro.errors import InvariantViolation
from repro.graphs import random_connected_graph, spanning_tree_of, tree_profile
from repro.treerouting import partition_tree, pointer_jump, required_iterations


@pytest.fixture()
def setup():
    graph = random_connected_graph(200, seed=81)
    tree = spanning_tree_of(graph, style="dfs", seed=81)
    part = partition_tree(tree, seed=7)
    net = Network(graph)
    bfs = build_bfs_tree(net)
    vpar = part.virtual_parent_reference()
    return graph, tree, part, net, bfs, vpar


def virtual_subtree_sizes_reference(tree, part):
    """Ground truth: for x in U(T), the T-subtree size of x."""
    sizes = tree_profile(tree).sizes
    return {x: sizes[x] for x in part.ut}


def local_sizes(part):
    forest = part.local_forest
    return {x: len(forest.subtree_vertices(x)) for x in part.ut}


class TestAlgorithm1Shape:
    def test_subtree_size_aggregation(self, setup):
        _, tree, part, net, bfs, vpar = setup
        result = pointer_jump(
            net, bfs, vpar,
            init=local_sizes(part),
            pull=lambda x, own, anc, contribs: own + sum(contribs),
        )
        assert result.values == virtual_subtree_sizes_reference(tree, part)

    def test_trail_lengths_uniform(self, setup):
        _, _, part, net, bfs, vpar = setup
        result = pointer_jump(
            net, bfs, vpar,
            init={x: 1 for x in part.ut},
            pull=lambda x, own, anc, contribs: own,
        )
        lengths = {len(t) for t in result.trail.values()}
        assert lengths == {result.iterations}

    def test_trail_first_entry_is_virtual_parent(self, setup):
        _, _, part, net, bfs, vpar = setup
        result = pointer_jump(
            net, bfs, vpar,
            init={x: 1 for x in part.ut},
            pull=lambda x, own, anc, contribs: own,
        )
        for x, trail in result.trail.items():
            assert trail[0] == vpar[x]

    def test_trail_doubles_ancestors(self, setup):
        _, _, part, net, bfs, vpar = setup
        result = pointer_jump(
            net, bfs, vpar,
            init={x: 1 for x in part.ut},
            pull=lambda x, own, anc, contribs: own,
        )

        def ancestor(x, hops):
            for _ in range(hops):
                if x is None:
                    return None
                x = vpar[x]
            return x

        for x, trail in result.trail.items():
            for i, a in enumerate(trail):
                assert a == ancestor(x, 2 ** i)


class TestAlgorithm6Shape:
    def test_prefix_sum_to_root(self, setup):
        _, _, part, net, bfs, vpar = setup
        init = {x: 1 for x in part.ut}
        init[part.root] = 0
        result = pointer_jump(
            net, bfs, vpar,
            init=init,
            pull=lambda x, own, anc, contribs: own + (anc or 0),
        )

        def vdepth(x):
            d = 0
            while vpar[x] is not None:
                x = vpar[x]
                d += 1
            return d

        for x, total in result.values.items():
            assert total == vdepth(x)


class TestTrailReuse:
    def test_reused_trail_gives_same_answers(self, setup):
        _, tree, part, net, bfs, vpar = setup
        first = pointer_jump(
            net, bfs, vpar,
            init=local_sizes(part),
            pull=lambda x, own, anc, contribs: own + sum(contribs),
        )
        second = pointer_jump(
            net, bfs, vpar,
            init=local_sizes(part),
            pull=lambda x, own, anc, contribs: own + sum(contribs),
            trail=first.trail,
        )
        assert second.values == first.values


class TestCosts:
    def test_rounds_scale_with_members_and_iterations(self, setup):
        _, _, part, net, bfs, vpar = setup
        before = net.metrics.total_rounds
        result = pointer_jump(
            net, bfs, vpar,
            init={x: 1 for x in part.ut},
            pull=lambda x, own, anc, contribs: own,
        )
        rounds = net.metrics.total_rounds - before
        # Each iteration is a Lemma-1 broadcast: 2(M + height).
        expected_floor = result.iterations * 2 * len(part.ut)
        assert rounds >= expected_floor

    def test_members_memory_is_logarithmic(self, setup):
        _, tree, part, net, bfs, vpar = setup
        pointer_jump(
            net, bfs, vpar,
            init={x: 1 for x in part.ut},
            pull=lambda x, own, anc, contribs: own,
            mem_key="t/pj",
        )
        iterations = required_iterations(len(part.ut))
        for x in part.ut:
            stored = dict(net.mem(x).items()).get("t/pj/trail", 0)
            assert stored == iterations

    def test_dangling_parent_rejected(self, setup):
        _, _, part, net, bfs, _ = setup
        with pytest.raises(InvariantViolation):
            pointer_jump(
                net, bfs, {1: 2},
                init={1: 0},
                pull=lambda x, own, anc, contribs: own,
            )


class TestSingletonMember:
    def test_single_member_trivial(self, setup):
        _, _, part, net, bfs, _ = setup
        result = pointer_jump(
            net, bfs, {part.root: None},
            init={part.root: 42},
            pull=lambda x, own, anc, contribs: own + sum(contribs),
        )
        assert result.values == {part.root: 42}
