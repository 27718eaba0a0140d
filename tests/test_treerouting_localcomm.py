"""Unit tests for local-tree floods with boundary delivery."""

import pytest

from repro.congest import Network
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.treerouting import partition_tree
from repro.treerouting.localcomm import local_flood, report_to_parents


@pytest.fixture()
def setup():
    graph = random_connected_graph(150, seed=71)
    tree = spanning_tree_of(graph, style="dfs", seed=71)
    part = partition_tree(tree, seed=5)
    return Network(graph), tree, part


class TestLocalFlood:
    def test_identity_flood_learns_local_roots(self, setup):
        net, tree, part = setup
        value, _ = local_flood(net, part, lambda x: x, lambda v, val: val)
        assert value == part.local_root_reference()

    def test_boundary_learns_virtual_parent(self, setup):
        net, tree, part = setup
        _, boundary = local_flood(net, part, lambda x: x, lambda v, val: val)
        reference = part.virtual_parent_reference()
        for x, got in boundary.items():
            assert got == reference[x]

    def test_boundary_excludes_global_root(self, setup):
        net, tree, part = setup
        _, boundary = local_flood(net, part, lambda x: x, lambda v, val: val)
        assert part.root not in boundary
        assert set(boundary) == part.ut - {part.root}

    def test_rounds_bounded_by_local_depth(self, setup):
        net, _, part = setup
        local_flood(net, part, lambda x: 0, lambda v, val: val)
        assert net.metrics.rounds <= part.max_local_depth + 1

    def test_per_child_emission(self, setup):
        net, tree, part = setup
        children = part.tree_forest.children

        def emit(v, val):
            return {c: (v, c) for c in children[v]}

        value, boundary = local_flood(net, part, lambda x: ("root", x), emit)
        for v, val in value.items():
            if v not in part.ut:
                assert val == (tree[v], v)
        for x, val in boundary.items():
            assert val == (tree[x], x)

    def test_derive_transforms_received_values(self, setup):
        net, _, part = setup
        value, boundary = local_flood(
            net,
            part,
            root_value=lambda x: 0,
            emit=lambda v, val: val,
            derive=lambda v, payload: payload + 1,
        )
        for v, val in value.items():
            assert val == part.local_forest.depth[v]
        # Boundary payloads stay raw (un-derived).
        for x, val in boundary.items():
            assert val == part.local_forest.depth[part.tree_parent[x]]


class TestReportToParents:
    def test_all_children_report(self, setup):
        net, tree, part = setup
        received = report_to_parents(net, part, lambda v: v)
        total = sum(len(d) for d in received.values())
        assert total == len(tree) - 1

    def test_payload_matches_sender(self, setup):
        net, tree, part = setup
        received = report_to_parents(net, part, lambda v: ("from", v))
        for p, msgs in received.items():
            for child, payload in msgs.items():
                assert tree[child] == p
                assert payload == ("from", child)

    def test_subset_of_senders(self, setup):
        net, tree, part = setup
        senders = [x for x in part.ut if x != part.root]
        received = report_to_parents(net, part, lambda v: 1, senders=senders)
        total = sum(len(d) for d in received.values())
        assert total == len(senders)

    def test_single_round(self, setup):
        net, _, part = setup
        report_to_parents(net, part, lambda v: 1)
        assert net.metrics.rounds == 1
