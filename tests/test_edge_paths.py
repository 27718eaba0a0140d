"""Edge-path coverage: error branches and uncommon inputs across layers."""

import dataclasses

import pytest

from repro.congest import Forest, Network
from repro.errors import InputError, InvariantViolation
from repro.graphs import (
    VirtualGraphOracle,
    random_connected_graph,
    spanning_tree_of,
)
from repro.treerouting import partition_tree
from repro.treerouting.localcomm import local_flood


class TestLocalFloodErrorPaths:
    def test_flood_detects_unreached_vertices(self):
        # A partition whose local forest was tampered with must fail loudly.
        graph = random_connected_graph(40, seed=301)
        tree = spanning_tree_of(graph, style="dfs", seed=301)
        part = partition_tree(tree, seed=3)
        # Remove one vertex from the local forest to break coverage.
        broken_parent = dict(part.local_forest.parent)
        victim = next(v for v in broken_parent if broken_parent[v] is not None)
        del broken_parent[victim]
        # Forest construction itself rejects dangling children of victim,
        # or (if victim was a leaf) the flood notices incomplete coverage.
        try:
            part = dataclasses.replace(
                part, local_forest=Forest.from_parent_map(broken_parent))
        except InputError:
            return
        with pytest.raises(InvariantViolation):
            local_flood(
                Network(graph), part, lambda x: 0, lambda v, val: val
            )

    def test_flood_names_a_vertex_reached_twice(self):
        graph = random_connected_graph(40, seed=301)
        tree = spanning_tree_of(graph, style="dfs", seed=301)
        part = partition_tree(tree, seed=3)
        # Replay the first wave a round later: its children hear twice.
        first = part.waves[0]
        part.__dict__["waves"] = part.waves + [first]
        with pytest.raises(InvariantViolation,
                           match="received a second local-flood message"):
            local_flood(
                Network(graph), part, lambda x: 0, lambda v, val: val
            )


class TestVirtualOracleGated:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = random_connected_graph(60, seed=302)
        virtual = sorted(graph.nodes)[:6]
        oracle = VirtualGraphOracle(graph, virtual, 60)
        return graph, virtual, oracle

    def test_gate_false_blocks_everything_but_sources(self, setup):
        _, virtual, oracle = setup
        dist, _, _ = oracle.relax_virtual_edges(
            {virtual[0]: 0.0}, forward_if=lambda v, d: False
        )
        assert dist == {virtual[0]: 0.0}

    def test_gate_radius_limits_reach(self, setup):
        graph, virtual, oracle = setup
        free, _, _ = oracle.relax_virtual_edges({virtual[0]: 0.0})
        radius = sorted(free.values())[len(free) // 2]
        gated, _, _ = oracle.relax_virtual_edges(
            {virtual[0]: 0.0}, forward_if=lambda v, d: d < radius
        )
        assert len(gated) <= len(free)

    def test_zero_hop_bound_rejected(self, setup):
        graph, virtual, _ = setup
        with pytest.raises(InputError):
            VirtualGraphOracle(graph, virtual, 0)

    def test_m_property(self, setup):
        _, virtual, oracle = setup
        assert oracle.m == len(virtual)


class TestNetworkEdgeCases:
    def test_single_edge_network(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b", weight=3.0)
        net = Network(g)
        net.send_each([("a", "b", 1)])
        inbox = net.tick()
        assert inbox["b"] == [("a", "b", 1)]

    def test_nonstrict_mode_allows_overload(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 2, weight=1.0)
        net = Network(g, strict=False)
        net.send_each([(1, 2, None)])
        net.send_each([(1, 2, None)])  # would raise in strict mode
        inbox = net.tick()
        assert len(inbox[2]) == 2

    def test_edge_capacity_override(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 2, weight=1.0)
        net = Network(g, edge_capacity=2)
        net.send_each([(1, 2, None)])
        net.send_each([(1, 2, None)])
        assert len(net.tick()[2]) == 2


class TestPartitionDegenerateTrees:
    def test_single_vertex_tree(self):
        graph = random_connected_graph(10, seed=303)
        v = sorted(graph.nodes)[0]
        part = partition_tree({v: None}, seed=1)
        assert part.ut == {v}
        assert part.max_local_depth == 0

    def test_two_vertex_tree(self):
        graph = random_connected_graph(10, seed=303)
        nodes = sorted(graph.nodes)
        a = nodes[0]
        b = next(iter(graph.neighbors(a)))
        part = partition_tree({a: None, b: a}, seed=1)
        assert a in part.ut
        assert part.local_root_reference()[b] in part.ut
