"""Failure-injection tests: corrupted artifacts must fail loudly, never
loop forever or deliver silently to the wrong vertex."""

import random

import pytest

from repro.congest import Network
from repro.core import build_distributed_scheme
from repro.errors import InputError, RoutingFailure
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.routing import (
    GraphLabel,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
    route_in_graph,
    route_in_tree,
)
from repro.telemetry import flight
from repro.treerouting import build_distributed_tree_scheme
from repro.tz import build_centralized_scheme, build_tree_scheme


@pytest.fixture(scope="module")
def tree_setup():
    graph = random_connected_graph(80, seed=191)
    tree = spanning_tree_of(graph, style="dfs", seed=191)
    scheme = build_tree_scheme(tree)
    return graph, tree, scheme


def find_path_pair(scheme, min_hops=3):
    """A (source, target) pair at least min_hops apart in the tree."""
    nodes = sorted(scheme.tables)
    rng = random.Random(0)
    while True:
        u, v = rng.sample(nodes, 2)
        result = route_in_tree(scheme, u, v)
        if result.hops >= min_hops:
            return u, v


class TestCorruptedTreeArtifacts:
    def test_swapped_heavy_child_terminates(self, tree_setup):
        graph, tree, scheme = tree_setup
        u, v = find_path_pair(scheme)
        # Corrupt an interior vertex's heavy pointer to its parent: the
        # router must either still deliver or raise, never hang.
        victim = route_in_tree(scheme, u, v).path[1]
        broken = dict(scheme.tables)
        old = broken[victim]
        broken[victim] = TreeTable(
            enter=old.enter, exit_=old.exit_, parent=old.parent, heavy=old.parent
        )
        corrupted = TreeRoutingScheme.from_maps(
            scheme.tree_id, scheme.root, broken, scheme.labels)
        try:
            result = route_in_tree(corrupted, u, v, max_hops=300)
            assert result.path[-1] == v
        except RoutingFailure:
            pass  # loud failure is acceptable; hanging is not

    def test_label_from_other_tree_raises_or_misroutes_loudly(self, tree_setup):
        graph, tree, scheme = tree_setup
        u, v = find_path_pair(scheme)
        bogus = TreeLabel(enter=10 ** 9)  # entry time outside every interval
        at_tables = scheme.tables
        with pytest.raises(RoutingFailure):
            # destination "enter" exceeds the root interval: the message
            # climbs to the root, which must then fail loudly.
            broken = TreeRoutingScheme.from_maps(
                scheme.tree_id, scheme.root, scheme.tables,
                {**scheme.labels, v: bogus})
            route_in_tree(broken, u, v)

    def test_zero_hop_budget_raises(self, tree_setup):
        _, _, scheme = tree_setup
        u, v = find_path_pair(scheme)
        with pytest.raises(RoutingFailure):
            route_in_tree(scheme, u, v, max_hops=1)


class TestCorruptedGraphArtifacts:
    @pytest.fixture(scope="class")
    def graph_setup(self):
        graph = random_connected_graph(90, seed=192)
        report = build_distributed_scheme(graph, 2, seed=19)
        return graph, report.scheme

    def test_missing_tree_table_raises(self, graph_setup):
        graph, scheme = graph_setup
        nodes = sorted(graph.nodes)
        u, v = nodes[0], nodes[-1]
        result = route_in_graph(scheme, graph, u, v)
        if result.hops < 2:
            pytest.skip("pair too close to corrupt mid-path")
        mid = result.path[1]
        # Delete the committed tree from the midpoint's table.
        label = scheme.labels[v]
        tree_id = next(
            e[0] for e in label.entries if e and scheme.tables[u].has_tree(e[0])
        )
        removed = scheme.tables[mid].trees.pop(tree_id)
        try:
            with pytest.raises(RoutingFailure):
                route_in_graph(scheme, graph, u, v)
        finally:
            scheme.tables[mid].trees[tree_id] = removed

    def test_label_with_no_usable_entry_raises(self, graph_setup):
        graph, scheme = graph_setup
        nodes = sorted(graph.nodes)
        u, v = nodes[0], nodes[-1]
        empty = GraphLabel(vertex=v, entries=(None,) * scheme.k)
        original = scheme.labels[v]
        scheme.labels[v] = empty
        try:
            with pytest.raises(RoutingFailure):
                route_in_graph(scheme, graph, u, v)
        finally:
            scheme.labels[v] = original


class TestAdversarialTopologies:
    def test_star_graph_tree_routing(self):
        # Maximum-degree vertex stresses Algorithm 5's relay pattern.
        import networkx as nx

        star = nx.star_graph(60)
        for a, b in star.edges:
            star[a][b]["weight"] = 1.0
        tree = {0: None}
        for v in range(1, 61):
            tree[v] = 0
        net = Network(star)
        build = build_distributed_tree_scheme(net, tree, seed=1)
        cent = build_tree_scheme(tree)
        assert build.scheme.tables == cent.tables
        assert build.scheme.labels == cent.labels

    def test_path_graph_tree_routing(self):
        # D = n: the worst case for broadcasts; must still be exact.
        import networkx as nx

        path = nx.path_graph(50)
        for a, b in path.edges:
            path[a][b]["weight"] = 2.0
        tree = {0: None}
        for v in range(1, 50):
            tree[v] = v - 1
        net = Network(path)
        build = build_distributed_tree_scheme(net, tree, seed=1)
        result = route_in_tree(build.scheme, 0, 49, weight_of=lambda a, b: 2.0)
        assert result.length == pytest.approx(2.0 * 49)

    def test_self_loop_fails_before_any_round(self):
        # A session opens a flight recorder for every network that runs a
        # round or is charged: none does, so not one round was simulated.
        graph = random_connected_graph(60, seed=3)
        tree = spanning_tree_of(graph, style="bfs", seed=3)
        graph.add_edge(5, 5, weight=1.0)
        with flight.auto() as session:
            with pytest.raises(InputError, match="self-loops; vertex 5 has one"):
                build_distributed_scheme(graph, 2, seed=3)
            with pytest.raises(InputError, match="self-loops; vertex 5 has one"):
                build_distributed_tree_scheme(Network(graph), tree, seed=3)
        assert session.recorders == []

    def test_weighted_multigraph_fails_before_any_round(self):
        # A multigraph's ``graph[u][v]`` holds edge keys, not attributes:
        # read as a simple graph every weight would be 1.0 and the schemes
        # would "succeed" on hop counts.
        import networkx as nx

        graph = nx.MultiGraph(random_connected_graph(60, seed=4))
        u, v = next(iter(graph.edges()))
        graph.add_edge(u, v, weight=5.0)
        with flight.auto() as session:
            for build in (build_distributed_scheme, build_centralized_scheme):
                with pytest.raises(InputError, match="simple, not a MultiGraph"):
                    build(graph, 2, seed=4)
        assert session.recorders == []

    @pytest.mark.parametrize("weight", ["x", "2", None])
    def test_non_numeric_weight_fails_naming_the_edge(self, weight):
        # ``"x" > 0`` is a TypeError: the check must turn it into an
        # InputError naming the edge and the value, before any round.
        graph = random_connected_graph(60, seed=4)
        u, v = next(iter(graph.edges()))
        graph[u][v]["weight"] = weight
        with flight.auto() as session:
            for build in (build_distributed_scheme, build_centralized_scheme):
                with pytest.raises(InputError) as failure:
                    build(graph, 2, seed=4)
                assert str(failure.value) == (
                    f"edge ({u!r}, {v!r}) has invalid weight {weight!r}")
        assert session.recorders == []

    def test_complete_graph_general_scheme(self):
        import networkx as nx

        complete = nx.complete_graph(40)
        rng = random.Random(7)
        for a, b in complete.edges:
            complete[a][b]["weight"] = rng.uniform(1, 5)
        report = build_distributed_scheme(complete, 2, seed=2)
        from repro.routing import measure_stretch, sample_pairs

        stretch = measure_stretch(
            report.scheme, complete, sample_pairs(list(complete.nodes), 60, seed=3)
        )
        assert stretch.max_stretch <= 5 + 1e-9
