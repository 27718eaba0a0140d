"""Unit tests for the table/label assembly stage (Appendix B, end)."""

import math

import pytest

from repro.congest import Network, build_bfs_tree
from repro.core.assembly import assemble_labels, assemble_tables
from repro.graphs import random_connected_graph
from repro.treerouting.multi import build_tree_schemes
from repro.tz import all_cluster_trees, compute_pivots, sample_hierarchy


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(100, seed=281)
    hierarchy = sample_hierarchy(list(graph.nodes), 2, seed=281)
    pivots = compute_pivots(graph, hierarchy)
    trees = all_cluster_trees(graph, hierarchy, pivots)
    net = Network(graph)
    bfs = build_bfs_tree(net)
    schemes = build_tree_schemes(
        net, {root: tree.parent for root, tree in trees.items()},
        seed=28, bfs=bfs,
    ).schemes
    return graph, hierarchy, pivots, trees, net, schemes


class TestAssembleTables:
    def test_every_membership_has_a_table(self, setup):
        _, _, _, trees, net, schemes = setup
        tables = assemble_tables(net, schemes)
        for root, tree in trees.items():
            for v in tree.dist:
                assert root in tables[v].trees

    def test_no_spurious_tables(self, setup):
        _, _, _, trees, net, schemes = setup
        tables = assemble_tables(net, schemes)
        for v, table in tables.items():
            for root in table.trees:
                assert v in trees[root].dist

    def test_memory_charged_for_tables(self, setup):
        _, _, _, _, net, schemes = setup
        tables = assemble_tables(net, schemes)
        for v, table in tables.items():
            stored = dict(net.mem(v).items()).get("scheme/table", 0)
            assert stored == table.word_size()


class TestAssembleLabels:
    def _labels(self, setup, slack):
        graph, hierarchy, pivots, trees, net, schemes = setup
        assemble_tables(net, schemes)
        reference = {i: pivots.dist[i] for i in range(hierarchy.k)}
        return assemble_labels(
            net, hierarchy, trees, schemes, reference, slack=slack
        )

    def test_every_vertex_labelled_with_k_entries(self, setup):
        graph, hierarchy, *_ = setup
        labels = self._labels(setup, slack=1.2)
        assert set(labels) == set(graph.nodes)
        for label in labels.values():
            assert len(label.entries) == hierarchy.k

    def test_top_level_entry_always_present(self, setup):
        _, hierarchy, *_ = setup
        labels = self._labels(setup, slack=1.2)
        for label in labels.values():
            assert label.entries[hierarchy.k - 1] is not None

    def test_level0_entry_is_self_tree(self, setup):
        labels = self._labels(setup, slack=1.2)
        for v, label in labels.items():
            entry = label.entries[0]
            assert entry is not None
            root, dist, _ = entry
            assert dist == pytest.approx(0.0)
            assert root == v

    def test_entry_roots_have_sufficient_level(self, setup):
        _, hierarchy, *_ = setup
        labels = self._labels(setup, slack=1.2)
        for label in labels.values():
            for i, entry in enumerate(label.entries):
                if entry is not None:
                    assert hierarchy.level_of[entry[0]] >= i

    def test_slack_filter_monotone(self, setup):
        tight = self._labels(setup, slack=1.0)
        loose = self._labels(setup, slack=10.0)
        tight_present = sum(
            1 for l in tight.values() for e in l.entries if e is not None
        )
        loose_present = sum(
            1 for l in loose.values() for e in l.entries if e is not None
        )
        assert loose_present >= tight_present

    def test_present_entries_respect_filter(self, setup):
        graph, hierarchy, pivots, *_ = setup
        slack = 1.2
        labels = self._labels(setup, slack=slack)
        for v, label in labels.items():
            for i, entry in enumerate(label.entries):
                if entry is None or i == hierarchy.k - 1:
                    continue
                _, dist, _ = entry
                reference = pivots.dist[i][v]
                if reference < math.inf:
                    assert dist <= slack * reference + 1e-9
