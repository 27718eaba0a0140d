"""Property-based tests: cluster/bunch invariants and the hopset
inequality over random weighted graphs."""


from hypothesis import given, settings, strategies as st

from repro.congest import Network
from repro.graphs import (
    VirtualGraphOracle,
    dijkstra,
    random_connected_graph,
)
from repro.hopsets import build_hopset, measure_hopbound
from repro.tz import (
    all_cluster_trees,
    compute_pivots,
    sample_hierarchy,
)


graph_cases = st.tuples(
    st.integers(min_value=20, max_value=80),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=2, max_value=4),
)


@given(graph_cases)
@settings(max_examples=15, deadline=None)
def test_cluster_definition_eq1(case):
    n, seed, k = case
    graph = random_connected_graph(n, seed=seed)
    hier = sample_hierarchy(list(graph.nodes), k, seed=seed)
    pivots = compute_pivots(graph, hier)
    trees = all_cluster_trees(graph, hier, pivots)
    nodes = sorted(graph.nodes, key=repr)
    for root in nodes[: min(5, n)]:
        tree = trees[root]
        exact, _ = dijkstra(graph, [root])
        for u in nodes:
            expected = exact[u] < pivots.next_level_distance(tree.level, u)
            assert (u in tree) == expected


@given(graph_cases)
@settings(max_examples=15, deadline=None)
def test_clusters_shortest_path_closed(case):
    n, seed, k = case
    graph = random_connected_graph(n, seed=seed)
    hier = sample_hierarchy(list(graph.nodes), k, seed=seed)
    trees = all_cluster_trees(graph, hier)
    for tree in list(trees.values())[:8]:
        for v, p in tree.parent.items():
            if p is not None:
                assert p in tree
                assert tree.dist[p] < tree.dist[v] + 1e-12


@given(st.tuples(
    st.integers(min_value=30, max_value=90),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=2, max_value=3),
))
@settings(max_examples=10, deadline=None)
def test_hopset_inequality_property(case):
    n, seed, kappa = case
    graph = random_connected_graph(n, seed=seed)
    hier = sample_hierarchy(list(graph.nodes), 2, seed=seed)
    virtual = sorted(hier.set_at(1), key=repr)
    if len(virtual) < 2:
        return
    oracle = VirtualGraphOracle(graph, virtual, n)
    net = Network(graph)
    hopset = build_hopset(net, oracle, kappa=kappa, seed=seed)
    hopset.verify_paths(graph)
    # measure_hopbound raises if no beta <= 512 satisfies the inequality;
    # passing means the hopset property holds for eps = 0.2.
    beta = measure_hopbound(
        oracle.materialize(), hopset, epsilon=0.2, sample_sources=4
    )
    assert beta >= 1


@given(graph_cases)
@settings(max_examples=15, deadline=None)
def test_pivot_distances_monotone_property(case):
    n, seed, k = case
    graph = random_connected_graph(n, seed=seed)
    hier = sample_hierarchy(list(graph.nodes), k, seed=seed)
    pivots = compute_pivots(graph, hier)
    for v in graph.nodes:
        ds = [pivots.dist[i][v] for i in range(k)]
        assert ds == sorted(ds)
        assert ds[0] == 0.0
