"""Unit tests for Lemma-2 Bellman-Ford and the path-recovery mechanism."""

import math

import pytest

from repro.congest import Network
from repro.graphs import (
    VirtualGraphOracle,
    default_hop_bound,
    dijkstra,
    random_connected_graph,
)
from repro.hopsets import build_hopset, hopset_bellman_ford, recover_paths
from repro.tz import sample_hierarchy

INF = math.inf


@pytest.fixture(scope="module")
def setup():
    graph = random_connected_graph(140, seed=55)
    hier = sample_hierarchy(list(graph.nodes), 2, seed=55)
    virtual = sorted(hier.set_at(1), key=repr)
    oracle = VirtualGraphOracle(graph, virtual, default_hop_bound(140))
    hopset = build_hopset(Network(graph), oracle, kappa=2, seed=55)
    return graph, virtual, oracle, hopset


class TestUnlimitedExploration:
    def test_estimates_lower_bounded_by_distance(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        state = hopset_bellman_ford(oracle, hopset, {root: 0.0}, beta=4)
        exact, _ = dijkstra(graph, [root])
        for v, est in state.est.items():
            assert est >= exact[v] - 1e-9

    def test_estimates_close_to_exact_with_enough_beta(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        state = hopset_bellman_ford(oracle, hopset, {root: 0.0}, beta=8)
        exact, _ = dijkstra(graph, [root])
        for v in virtual:
            assert state.value(v) <= 1.25 * exact[v] + 1e-9

    @pytest.mark.parametrize("beta", [1, 3])
    def test_final_sweep_covers_graph(self, setup, beta):
        graph, virtual, oracle, hopset = setup
        state = hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=beta)
        assert set(state.est) == set(graph.nodes)

    def test_multi_source_zeroes(self, setup):
        graph, virtual, oracle, hopset = setup
        sources = {v: 0.0 for v in virtual[:3]}
        state = hopset_bellman_ford(oracle, hopset, sources, beta=3)
        exact, _ = dijkstra(graph, virtual[:3])
        for v in graph.nodes:
            assert state.value(v) >= exact[v] - 1e-9

    def test_beta_zero_rejected(self, setup):
        _, virtual, oracle, hopset = setup
        with pytest.raises(Exception):
            hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=0)


class TestLimitedExploration:
    def test_gate_blocks_propagation(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        blocked = hopset_bellman_ford(
            oracle, hopset, {root: 0.0}, beta=2,
            forward_if=lambda v, e: v == root,
        )
        free = hopset_bellman_ford(oracle, hopset, {root: 0.0}, beta=2)
        assert len(blocked.est) <= len(free.est)

    def test_radius_gate_bounds_reach(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        exact, _ = dijkstra(graph, [root])
        radius = sorted(exact.values())[len(exact) // 4]
        state = hopset_bellman_ford(
            oracle, hopset, {root: 0.0}, beta=4,
            forward_if=lambda v, e: e < radius,
        )
        # Everything that passed the gate is within one edge of the ball.
        max_w = max(d["weight"] for _, _, d in graph.edges(data=True))
        for v, est in state.est.items():
            assert est <= radius + max_w + 1e-9 or est >= exact[v] - 1e-9


class TestProvenance:
    def test_gparent_edges_exist(self, setup):
        graph, virtual, oracle, hopset = setup
        state = hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=4)
        recover_paths(graph, hopset, state)
        for v, p in state.gparent.items():
            if p is not None:
                assert graph.has_edge(v, p)

    def test_recovery_clears_hvia(self, setup):
        graph, virtual, oracle, hopset = setup
        state = hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=4)
        recover_paths(graph, hopset, state)
        assert state.hvia == {}

    def test_recovery_returns_the_vertices_it_lowered(self, setup):
        # Ordinary vertices do not forward, so the final sweep leaves the
        # interiors of the winning hopset paths to the recovery walk.
        graph, virtual, oracle, hopset = setup
        state = hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=4,
                                    forward_if=lambda v, e: oracle.is_virtual(v))
        before = dict(state.est)
        lowered = recover_paths(graph, hopset, state)
        assert lowered
        assert set(lowered) == {v for v, d in state.est.items()
                                if d < before.get(v, INF)}
        assert all(state.gparent[v] is not None for v in lowered)

    def test_parent_chain_reaches_root(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        state = hopset_bellman_ford(oracle, hopset, {root: 0.0}, beta=4)
        recover_paths(graph, hopset, state)
        for v in list(state.est)[:40]:
            cursor, hops = v, 0
            while state.gparent.get(cursor) is not None:
                cursor = state.gparent[cursor]
                hops += 1
                assert hops <= graph.number_of_nodes()
            assert cursor == root

    def test_parent_strictly_decreases_estimate(self, setup):
        graph, virtual, oracle, hopset = setup
        state = hopset_bellman_ford(oracle, hopset, {virtual[0]: 0.0}, beta=4)
        recover_paths(graph, hopset, state)
        for v, p in state.gparent.items():
            if p is not None:
                assert state.value(p) < state.value(v) + 1e-12

    def test_chain_length_bounded_by_estimate(self, setup):
        graph, virtual, oracle, hopset = setup
        root = virtual[0]
        state = hopset_bellman_ford(oracle, hopset, {root: 0.0}, beta=4)
        recover_paths(graph, hopset, state)
        for v in list(state.est)[:40]:
            total, cursor = 0.0, v
            while state.gparent.get(cursor) is not None:
                p = state.gparent[cursor]
                total += graph[cursor][p]["weight"]
                cursor = p
            assert total <= state.value(v) + 1e-9
