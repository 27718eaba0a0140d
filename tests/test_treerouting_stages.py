"""Stage-by-stage tests of the distributed tree routing against the
centralized reference (Section 3 + Appendix A)."""

import math

import pytest

from repro.congest import Network, build_bfs_tree
from repro.graphs import (
    random_connected_graph,
    spanning_tree_of,
    tree_profile,
)
from repro.treerouting import (
    partition_tree,
    run_stage0,
    run_stage1,
    run_stage2,
    run_stage3,
)


@pytest.fixture(scope="module", params=["dfs", "random", "shortest-path"])
def pipeline(request):
    graph = random_connected_graph(180, seed=91)
    tree = spanning_tree_of(graph, style=request.param, seed=91)
    net = Network(graph)
    bfs = build_bfs_tree(net)
    part = partition_tree(tree, seed=9)
    info = run_stage0(net, part)
    sizes = run_stage1(net, bfs, part, info)
    light = run_stage2(net, bfs, part, info, sizes)
    dfs = run_stage3(net, bfs, part, info, sizes)
    return graph, tree, net, part, info, sizes, light, dfs


class TestStage0:
    def test_local_roots_correct(self, pipeline):
        _, _, _, part, info, _, _, _ = pipeline
        assert info.local_root == part.local_root_reference()

    def test_virtual_parents_correct(self, pipeline):
        _, _, _, part, info, _, _, _ = pipeline
        assert info.virtual_parent == part.virtual_parent_reference()


class TestStage1:
    def test_sizes_match_centralized(self, pipeline):
        _, tree, _, _, _, sizes, _, _ = pipeline
        assert sizes.sizes == tree_profile(tree).sizes

    def test_heavy_children_match_centralized(self, pipeline):
        _, tree, _, _, _, sizes, _, _ = pipeline
        assert sizes.heavy == tree_profile(tree).heavy

    def test_trail_covers_ut(self, pipeline):
        _, _, _, part, _, sizes, _, _ = pipeline
        assert set(sizes.trail) == part.ut


class TestStage2:
    def test_light_edges_match_centralized(self, pipeline):
        _, tree, _, _, _, _, light, _ = pipeline
        reference = tree_profile(tree).light_edges
        for v in tree:
            assert tuple(light.light_edges[v]) == reference[v], v

    def test_lists_bounded_by_log_n(self, pipeline):
        _, tree, _, _, _, _, light, _ = pipeline
        bound = math.log2(len(tree))
        for edges in light.light_edges.values():
            assert len(edges) <= bound


class TestStage3:
    def test_intervals_match_centralized(self, pipeline):
        _, tree, _, _, _, _, _, dfs = pipeline
        assert dfs.intervals == tree_profile(tree).intervals

    def test_entries_are_a_permutation(self, pipeline):
        _, tree, _, _, _, _, _, dfs = pipeline
        enters = sorted(e for e, _ in dfs.intervals.values())
        assert enters == list(range(1, len(tree) + 1))


class TestCostClaims:
    def test_memory_is_logarithmic(self, pipeline):
        _, tree, net, _, _, _, _, _ = pipeline
        n = len(tree)
        # O(log n) words with a generous constant (trail + lists + scratch).
        assert net.max_memory() <= 12 * math.log2(n) + 40

    def test_rounds_scale_with_sqrt_n_and_depth(self, pipeline):
        _, tree, net, part, _, _, _, _ = pipeline
        n = len(tree)
        budget = 60 * (math.sqrt(n) + part.max_local_depth + 50) * math.log2(n)
        assert net.metrics.total_rounds <= budget
