"""Unit tests for the exact low-level cluster phase (Appendix B).

This file also runs under ``PYTHONHASHSEED=random`` in CI: the trees must
equal the centralized ones, dict order included, under any salt.
"""

import random

import pytest

from repro.congest import Network
from repro.core import build_exact_low_level_clusters, claim8_hop_limit
from repro.graphs import random_connected_graph
from repro.graphs.paths import bounded_bellman_ford, shortest_path_hops
from repro.tz import all_cluster_trees, compute_pivots, sample_hierarchy, virtual_level

TIE_PRONE = (0.1, 0.2, 0.3, 0.7)


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(120, seed=121)
    hier = sample_hierarchy(list(graph.nodes), 4, seed=121)
    pivots = compute_pivots(graph, hier)
    return graph, hier, pivots


class TestClaim8:
    def test_hop_limit_monotone_in_level(self):
        limits = [claim8_hop_limit(10 ** 6, 4, i) for i in range(3)]
        assert limits == sorted(limits)

    def test_hop_limit_capped_at_n(self):
        assert claim8_hop_limit(50, 2, 1) == 50

    def test_claim8_empirically(self, setup):
        graph, hier, pivots = setup
        n = graph.number_of_nodes()
        trees = all_cluster_trees(graph, hier, pivots)
        for root in sorted(trees, key=repr)[:10]:
            tree = trees[root]
            hops = shortest_path_hops(graph, root)
            limit = claim8_hop_limit(n, hier.k, tree.level)
            for u in tree.dist:
                assert hops[u] <= limit


class TestLowLevelPhase:
    def test_covers_exactly_low_level_roots(self, setup):
        graph, hier, pivots = setup
        boundary = virtual_level(hier.k)
        net = Network(graph)
        trees, _ = build_exact_low_level_clusters(net, hier, pivots, boundary)
        expected = {
            v for v in graph.nodes if hier.level_of[v] < boundary
        }
        assert set(trees) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("weights", ["own", "unit", "tie-prone"])
    def test_trees_match_centralized(self, weights, k):
        """The kernel's trees are the limited Dijkstra's, members and
        parents in the same order: unit and tie-prone weights make many
        equal-length paths, where a tree could pick another parent."""
        graph = random_connected_graph(120, seed=121)
        rng = random.Random(k)
        for u, v in graph.edges:
            if weights == "unit":
                graph[u][v]["weight"] = 1.0
            elif weights == "tie-prone":
                graph[u][v]["weight"] = rng.choice(TIE_PRONE)
        hier = sample_hierarchy(list(graph.nodes), k, seed=121)
        pivots = compute_pivots(graph, hier)
        boundary = virtual_level(k)
        trees, _ = build_exact_low_level_clusters(Network(graph), hier, pivots, boundary)
        reference = all_cluster_trees(graph, hier, pivots)
        assert trees
        for root, tree in trees.items():
            want = reference[root]
            assert tree.level == want.level
            assert list(tree.dist.items()) == list(want.dist.items())
            assert list(tree.parent.items()) == list(want.parent.items())

    def test_rounds_charged(self, setup):
        graph, hier, pivots = setup
        net = Network(graph)
        build_exact_low_level_clusters(net, hier, pivots, virtual_level(hier.k))
        assert net.metrics.charged_rounds > 0

    def test_memory_charged_per_membership(self, setup):
        graph, hier, pivots = setup
        net = Network(graph)
        trees, _ = build_exact_low_level_clusters(net, hier, pivots, virtual_level(hier.k))
        counts = {v: 0 for v in graph.nodes}
        for tree in trees.values():
            for v in tree.dist:
                counts[v] += 1
        for v in graph.nodes:
            stored = dict(net.mem(v).items()).get("clusters/membership", 0)
            assert stored == 2 * counts[v]


class TestClaim8Verdict:
    """``table1/this-paper/claim8_hop_depth``: every low-level cluster
    exploration of the Table 1 build lowers its last estimate within Claim
    8's hop limit for its level."""

    @pytest.fixture(scope="class")
    def table1(self):
        from repro.analysis.tables import run_table1

        return run_table1(n=80, k=3, seed=3, pairs=20)

    def test_hop_depth_reads_the_parent_pointers(self, setup):
        from repro.graphs.trees import depths

        graph, hier, pivots = setup
        for root, tree in all_cluster_trees(graph, hier, pivots).items():
            depth = {root: 0}
            for v in sorted(tree.dist, key=tree.dist.get):
                if tree.parent[v] is not None:
                    depth[v] = depth[tree.parent[v]] + 1
            assert depths(tree.parent) == depth

    def test_verdict_is_emitted_and_passes(self, table1):
        from repro.graphs.trees import depths

        record = table1.to_run_record()
        (verdict,) = [v for v in record.verdicts
                      if v.name == "table1/this-paper/claim8_hop_depth"]
        assert verdict.passed and record.passed
        passes = table1.low_level_passes
        assert sorted(passes) == [0, 1]  # ⌈k/2⌉ = 2 low levels
        assert verdict.measured in passes.values()
        # Recomputed: each level's largest last improving pass, and at
        # least as deep as that level's deepest cluster tree.
        graph = random_connected_graph(table1.n, seed=table1.seed)
        hier = sample_hierarchy(list(graph.nodes), table1.k, seed=table1.seed)
        pivots = compute_pivots(graph, hier)
        want, deepest = {}, {}
        for root, tree in all_cluster_trees(graph, hier, pivots).items():
            i = tree.level
            if i >= virtual_level(table1.k):
                continue
            next_dist = pivots.dist[i + 1]
            *_, used = bounded_bellman_ford(
                graph, {root: 0.0}, table1.n,
                forward_if=lambda v, d: d < next_dist[v])
            want[i] = max(want.get(i, 0), used - 1)
            deepest[i] = max(deepest.get(i, 0), max(depths(tree.parent).values()))
        assert passes == want
        assert all(passes[i] >= deepest[i] >= 1 for i in passes)

    def test_verdict_fails_under_a_limit_of_one(self, table1, monkeypatch):
        import repro.analysis.tables as tables

        monkeypatch.setattr(tables, "claim8_hop_limit", lambda n, k, i: 1)
        record = table1.to_run_record()
        (verdict,) = [v for v in record.verdicts
                      if v.name == "table1/this-paper/claim8_hop_depth"]
        assert not verdict.passed and verdict.limit == 1
        assert not record.passed
