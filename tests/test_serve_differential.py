"""Differential suite: the packed serve engine vs the reference routers.

The serve engine's contract (docs/serving.md) is byte-identical behaviour
with :func:`route_in_graph` / :func:`route_in_tree` on *every* query --
identical paths and lengths on success, and identical ``RoutingFailure``
messages and partial paths (or ``KeyError``) on malformed schemes.  Each
graph family replays 600 seeded queries through both implementations;
corrupted-scheme cases check the failure surface hop by hop.
"""

import pytest

from repro.errors import InputError, RoutingFailure
from repro.graphs import (
    grid_graph,
    random_connected_graph,
    ring_of_cliques,
    spanning_tree_of,
)
from repro.routing import route_in_tree
from repro.routing.router import route_in_graph, sample_pairs
from repro.serve import ServeEngine, compile_scheme, serve_pairs
from repro.tracing import Tracer, replay_query
from repro.tz import build_centralized_scheme, build_tree_scheme

from .differential.harness import random_tree_network

QUERIES = 600


def reference_outcome(scheme, graph, u, v):
    """(ok, path, length, error) from the reference graph router."""
    try:
        r = route_in_graph(scheme, graph, u, v)
        return True, r.path, r.length, None
    except RoutingFailure as exc:
        return False, list(exc.path) if exc.path else [u], None, str(exc)


def assert_parity(result, ok, path, length, error):
    assert result.ok == ok, (result, error)
    assert result.path == path
    if ok:
        assert result.length == pytest.approx(length)
    else:
        assert result.error == error


GRAPH_FAMILIES = {
    "random": lambda: random_connected_graph(120, seed=3),
    "grid": lambda: grid_graph(10, 12, seed=4),
    "ring-of-cliques": lambda: ring_of_cliques(8, 5, seed=5),
}


@pytest.fixture(scope="module", params=sorted(GRAPH_FAMILIES))
def graph_setup(request):
    graph = GRAPH_FAMILIES[request.param]()
    scheme = build_centralized_scheme(graph, 3, seed=9)
    return graph, scheme, compile_scheme(scheme, graph)


class TestGraphDifferential:
    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_600_queries_byte_identical(self, graph_setup, cache_size):
        graph, scheme, compiled = graph_setup
        pairs = sample_pairs(list(graph.nodes), QUERIES, seed=17)
        engine = ServeEngine(compiled, cache_size=cache_size)
        results = engine.route_many(pairs)
        assert len(results) == QUERIES
        for (u, v), result in zip(pairs, results):
            assert_parity(result, *reference_outcome(scheme, graph, u, v))

    def test_single_query_path_matches_batch(self, graph_setup):
        graph, scheme, compiled = graph_setup
        pairs = sample_pairs(list(graph.nodes), 50, seed=23)
        engine = ServeEngine(compiled)
        batch = ServeEngine(compiled).route_many(pairs)
        for (u, v), expected in zip(pairs, batch):
            assert engine.route_recorded(u, v) == expected

    def test_self_query(self, graph_setup):
        graph, scheme, compiled = graph_setup
        v = next(iter(graph.nodes))
        engine = ServeEngine(compiled)
        for result in (engine.route(v, v),
                       engine.route_many([(v, v)])[0]):
            assert result.ok and result.path == [v] and result.length == 0.0

    def test_warm_cache_results_identical(self, graph_setup):
        graph, scheme, compiled = graph_setup
        pairs = sample_pairs(list(graph.nodes), 100, seed=29) * 2
        cold = ServeEngine(compiled, cache_size=0).route_many(pairs)
        warm_engine = ServeEngine(compiled, cache_size=4096)
        warm = warm_engine.route_many(pairs)
        assert [(r.path, r.length, r.ok) for r in warm] == \
               [(r.path, r.length, r.ok) for r in cold]
        assert warm_engine.cache.hits >= 100  # second half all hits
        assert any(r.cached for r in warm)


class TestGraphFailureParity:
    """Corrupted schemes must fail exactly like the reference."""

    @pytest.fixture()
    def setup(self):
        graph = random_connected_graph(60, seed=31)
        scheme = build_centralized_scheme(graph, 2, seed=31)
        return graph, scheme

    def _some_long_route(self, scheme, graph, min_hops=2):
        for u, v in sample_pairs(list(graph.nodes), 200, seed=37):
            r = route_in_graph(scheme, graph, u, v)
            if len(r.path) > min_hops:
                return u, v, r.path
        raise AssertionError("no multi-hop route found")

    def test_missing_target_label_raises_keyerror(self, setup):
        graph, scheme = setup
        u, v, _ = self._some_long_route(scheme, graph)
        del scheme.labels[v]
        engine = ServeEngine(compile_scheme(scheme, graph))
        with pytest.raises(KeyError):
            route_in_graph(scheme, graph, u, v)
        with pytest.raises(KeyError):
            engine.route(u, v)

    def test_missing_source_table_raises_keyerror(self, setup):
        graph, scheme = setup
        u, v, _ = self._some_long_route(scheme, graph)
        del scheme.tables[u]
        engine = ServeEngine(compile_scheme(scheme, graph))
        with pytest.raises(KeyError):
            route_in_graph(scheme, graph, u, v)
        with pytest.raises(KeyError):
            engine.route(u, v)

    def test_treeless_midpath_vertex_parity(self, setup):
        # The vertex keeps its GraphTable but loses every tree: the
        # reference reaches it, finds no row for the committed tree, and
        # raises the "no table for tree" failure with the partial path.
        graph, scheme = setup
        u, v, path = self._some_long_route(scheme, graph)
        scheme.tables[path[1]].trees.clear()
        engine = ServeEngine(compile_scheme(scheme, graph))
        result = engine.route_many([(u, v)])[0]
        assert_parity(result, *reference_outcome(scheme, graph, u, v))
        assert not result.ok
        assert "no table for tree" in result.error

    def test_fully_deleted_midpath_table_raises_keyerror(self, setup):
        # Deleting the GraphTable outright is a different failure class:
        # the reference raises KeyError (scheme.tables[at]), not
        # RoutingFailure, and the engine must preserve the distinction.
        graph, scheme = setup
        u, v, path = self._some_long_route(scheme, graph)
        del scheme.tables[path[1]]
        engine = ServeEngine(compile_scheme(scheme, graph))
        with pytest.raises(KeyError):
            route_in_graph(scheme, graph, u, v)
        with pytest.raises(KeyError):
            engine.route(u, v)

    def test_removed_edge_parity(self, setup):
        graph, scheme = setup
        u, v, path = self._some_long_route(scheme, graph)
        cut = graph.copy()
        cut.remove_edge(path[0], path[1])
        engine = ServeEngine(compile_scheme(scheme, cut))
        result = engine.route_recorded(u, v)
        assert_parity(result, *reference_outcome(scheme, cut, u, v))
        assert not result.ok and "is not an edge" in result.error

    def test_count_and_continue_over_mixed_batch(self, setup):
        graph, scheme = setup
        u, v, path = self._some_long_route(scheme, graph)
        scheme.tables[path[1]].trees.clear()
        engine = ServeEngine(compile_scheme(scheme, graph))
        pairs = sample_pairs(list(graph.nodes), 300, seed=41)
        results = engine.route_many(pairs)
        assert len(results) == len(pairs)
        failures = sum(1 for r in results if not r.ok)
        assert engine.failures == failures
        for (a, b), result in zip(pairs, results):
            assert_parity(result, *reference_outcome(scheme, graph, a, b))


TREE_FAMILIES = {
    "random-tree": lambda: random_tree_network(80, seed=43),
    "star-ish": lambda: random_connected_graph(90, seed=44),
}


@pytest.fixture(params=sorted(TREE_FAMILIES))
def tree_setup(request):
    # Function-scoped: the corruption tests mutate the scheme in place.
    graph = TREE_FAMILIES[request.param]()
    parent = spanning_tree_of(graph, style="dfs", seed=7)
    scheme = build_tree_scheme(parent)
    return graph, scheme


class TestTreeDifferential:
    def test_weighted_600_queries(self, tree_setup):
        graph, scheme = tree_setup
        engine = ServeEngine(compile_scheme(scheme, graph))
        weight = lambda u, v: graph[u][v]["weight"]
        pairs = sample_pairs(list(graph.nodes), QUERIES, seed=47)
        for (u, v), result in zip(pairs, engine.route_many(pairs)):
            ref = route_in_tree(scheme, u, v, weight_of=weight)
            assert result.ok
            assert result.path == ref.path
            assert result.length == pytest.approx(ref.length)

    def test_unweighted_hop_counts(self, tree_setup):
        graph, scheme = tree_setup
        engine = ServeEngine(compile_scheme(scheme))  # no graph: hop counts
        pairs = sample_pairs(list(graph.nodes), 100, seed=53)
        for (u, v) in pairs:
            ref = route_in_tree(scheme, u, v)
            result = engine.route(u, v)
            assert result.path == ref.path
            assert result.length == pytest.approx(ref.length)

    def test_missing_label_raises_keyerror(self, tree_setup):
        graph, scheme = tree_setup
        u, v = sample_pairs(list(graph.nodes), 1, seed=59)[0]
        del scheme.labels[v]
        engine = ServeEngine(compile_scheme(scheme))
        with pytest.raises(KeyError):
            route_in_tree(scheme, u, v)
        with pytest.raises(KeyError):
            engine.route(u, v)

    def test_tableless_hop_parity(self, tree_setup):
        graph, scheme = tree_setup
        for u, v in sample_pairs(list(graph.nodes), 100, seed=61):
            if len(route_in_tree(scheme, u, v).path) > 2:
                break
        mid = route_in_tree(scheme, u, v).path[1]
        del scheme.tables[mid]
        engine = ServeEngine(compile_scheme(scheme))
        try:
            route_in_tree(scheme, u, v)
            raise AssertionError("reference did not fail")
        except RoutingFailure as exc:
            result = engine.route_recorded(u, v)
            assert not result.ok
            assert result.error == str(exc)
            assert result.path == list(exc.path)
            assert "which has no table" in result.error

    def test_hop_budget_parity(self, tree_setup):
        graph, scheme = tree_setup
        for u, v in sample_pairs(list(graph.nodes), 100, seed=67):
            if len(route_in_tree(scheme, u, v).path) > 3:
                break
        engine = ServeEngine(compile_scheme(scheme), max_hops=1)
        try:
            route_in_tree(scheme, u, v, max_hops=1)
            raise AssertionError("reference did not fail")
        except RoutingFailure as exc:
            result = engine.route_recorded(u, v)
            assert not result.ok
            assert result.error == str(exc) == "exceeded hop budget 1"
            assert result.path == list(exc.path)

    @pytest.mark.parametrize("max_hops", [0, 1, 3])
    def test_explicit_budget_is_the_references_budget(self, tree_setup,
                                                      max_hops):
        """``max_hops=0`` is a budget of zero hops, as in ``route_in_tree``
        (it used to fall through to the scheme's default): same message,
        same partial path, from every entry point and in the replayed
        trace."""
        graph, scheme = tree_setup
        compiled = compile_scheme(scheme)
        engine = ServeEngine(compiled, max_hops=max_hops)
        assert engine.budget == max_hops
        pairs = sample_pairs(list(graph.nodes), 100, seed=71)
        pairs.append((pairs[0][0], pairs[0][0]))
        batch = ServeEngine(compiled, max_hops=max_hops).route_many(pairs)
        failures = 0
        for (u, v), batched in zip(pairs, batch):
            result = engine.route_recorded(u, v)
            trace = replay_query(engine, u, v)
            assert batched == result
            try:
                ref = route_in_tree(scheme, u, v, max_hops=max_hops)
            except RoutingFailure as exc:
                failures += 1
                assert not result.ok and not trace.ok
                assert result.error == trace.error == str(exc) \
                    == f"exceeded hop budget {max_hops}"
                assert result.path == list(exc.path)
                assert len(trace.hops) == max_hops
                with pytest.raises(RoutingFailure, match=str(exc)):
                    engine.route(u, v)
            else:
                assert result.ok and trace.ok and result.path == ref.path
                assert result.length == pytest.approx(ref.length)
        assert failures > 0

    def test_default_budget_and_bad_budgets(self, tree_setup):
        graph, scheme = tree_setup
        compiled = compile_scheme(scheme)
        assert ServeEngine(compiled).budget == compiled.default_budget \
            == 2 * len(scheme.tables) + 2
        with pytest.raises(InputError, match="max_hops"):
            ServeEngine(compiled, max_hops=-1)


def test_graph_engine_takes_max_hops_zero_literally(graph_setup):
    graph, scheme, compiled = graph_setup
    u, v = sample_pairs(list(graph.nodes), 1, seed=73)[0]
    engine = ServeEngine(compiled, max_hops=0)
    for result in (engine.route_recorded(u, v), engine.route_many([(u, v)])[0]):
        assert not result.ok and result.path == [u]
        assert result.error == "exceeded hop budget 0"
    assert replay_query(engine, u, v).error == "exceeded hop budget 0"
    assert engine.route_many([(u, u)])[0].ok


def test_trace_provenance_matches_the_source_scheme(graph_setup):
    """Every head and tail trace names the level, tree, root, distance to
    the root and bunch levels the *source scheme* gives: read off
    ``scheme.labels`` and ``scheme.tree_schemes``, never off the compiled
    tables the replay itself reads.  The level is the first bunch level
    whose tree the source holds (Appendix B's source rule)."""
    graph, scheme, compiled = graph_setup
    held = {tid for table in scheme.tables.values() for tid in table.trees}
    pairs = sample_pairs(list(graph.nodes), 300, seed=41)
    report, _ = serve_pairs(ServeEngine(compiled), graph, pairs,
                            tracer=Tracer(rate=0.1, seed=7, tail_limit=16))
    vias = {trace.via for trace in report.traces}
    assert any("head" in via for via in vias)
    assert any("tail" in via for via in vias)
    for trace in report.traces:
        entries = scheme.labels[trace.target].entries
        assert trace.bunch_levels == tuple(
            level for level, entry in enumerate(entries)
            if entry is not None and entry[0] in held)
        tree_id, dist_to_root, _ = entries[trace.level]
        assert (trace.tree_id, trace.dist_to_root) == (tree_id, dist_to_root)
        assert trace.root == scheme.tree_schemes[tree_id].root
        assert scheme.tables[trace.source].has_tree(tree_id)
        assert not any(scheme.tables[trace.source].has_tree(entries[i][0])
                       for i in trace.bunch_levels if i < trace.level)
        # Thorup-Zwick: every vertex is in a level-0 cluster, and a
        # cluster tree is named by its landmark, its root.
        assert 0 in trace.bunch_levels and trace.root == trace.tree_id
