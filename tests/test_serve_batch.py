"""The columnar ``RouteBatch`` under ``route_many``.

The batch must *be* the list of ``ServeResult`` it replaced -- equal to the
``route_recorded`` loop on a twin engine, on either side of ``==``, indexable,
picklable, the same through a forked pool -- while keeping no object per query
alive (the allocation pin: the cyclic collector re-walking 600k result
containers was half of a hot pass, docs/performance.md).
"""

import gc
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import random_connected_graph, spanning_tree_of
from repro.metrics.serve import path_length_counts
from repro.serve import (
    RouteBatch,
    ServeEngine,
    ServeResult,
    compile_scheme,
    make_workload,
    serve_pairs,
)
from repro.shard import ShardPool
from repro.tracing import Tracer
from repro.tz import build_centralized_scheme, build_tree_scheme

N = 40


def _graph_tables(corrupt):
    graph = random_connected_graph(N, seed=5)
    scheme = build_centralized_scheme(graph, 2, seed=5)
    if corrupt:
        # Two vertices keep their tables but lose every tree: queries
        # from them fail at the decision (no path), queries through them
        # fail mid-route (partial path).
        for v in (7, 23):
            scheme.tables[v].trees.clear()
    return graph, compile_scheme(scheme, graph), {}


def _tree_tables(max_hops):
    graph = random_connected_graph(N, seed=5)
    scheme = build_tree_scheme(spanning_tree_of(graph, style="dfs", seed=5))
    return graph, compile_scheme(scheme, graph), {"max_hops": max_hops}


#: name -> (graph, compiled, engine kwargs); ids are 0..N-1 in all of them.
TABLES = {
    "graph": _graph_tables(corrupt=False),
    "graph-corrupted": _graph_tables(corrupt=True),
    "tree": _tree_tables(max_hops=None),
    "tree-short-budget": _tree_tables(max_hops=3),
}

#: Drawn from a few vertices so streams repeat pairs and hit ``u == u``.
STREAMS = st.lists(
    st.tuples(st.sampled_from([0, 3, 7, 11, 23, 39]),
              st.sampled_from([0, 3, 7, 12, 23, 31])),
    max_size=60)


def _attachments(instrumented):
    if not instrumented:
        return {}
    return {"tracer": Tracer(rate=0.3, seed=1)}


class TestEqualsTheRecordedLoop:
    @pytest.mark.parametrize("instrumented", [False, True])
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("cache_size", [0, 2, 4096])
    @pytest.mark.parametrize("tables", sorted(TABLES))
    @settings(max_examples=15, deadline=None)
    @given(stream=STREAMS)
    def test_twin_engines(self, tables, cache_size, timed, instrumented,
                          stream):
        _, compiled, kwargs = TABLES[tables]
        new = ServeEngine(compiled, cache_size=cache_size, **kwargs,
                          **_attachments(instrumented))
        old = ServeEngine(compiled, cache_size=cache_size, **kwargs,
                          **_attachments(instrumented))
        boundaries = array("d") if timed else None
        batch = new.route_many(iter(stream), boundaries)
        expected = [old.route_recorded(u, v) for u, v in stream]

        assert isinstance(batch, RouteBatch)
        assert list(batch) == expected
        # ServeResult equality leaves `cached` out; the columns do not.
        assert [r.cached for r in batch] == [r.cached for r in expected]
        assert [r.error for r in batch] == [r.error for r in expected]
        assert batch == expected and expected == batch
        assert batch == RouteBatch.of(expected)
        assert new.stats() == old.stats()
        assert sorted(batch.errors) == [
            i for i, r in enumerate(expected) if not r.ok]
        assert batch.keys == stream
        if timed:
            assert len(boundaries) == len(stream) + 1
        if instrumented:
            # Batch picks and single-query picks: the same traces, in full.
            assert ([t.to_dict() for t in new.tracer.finalize(new, batch)]
                    == [t.to_dict()
                        for t in old.tracer.finalize(old, expected)])

    @pytest.fixture(scope="class")
    def batch(self):
        _, compiled, _ = TABLES["graph-corrupted"]
        stream = [(u, v) for u in range(N) for v in (0, 12, 31)]
        return ServeEngine(compiled).route_many(stream)

    def test_the_corrupted_tables_fail_both_ways(self, batch):
        failed = [batch[i] for i in batch.errors]
        assert any(len(r.path) > 1 for r in failed), "no partial path"
        assert any(r.path == [r.source] for r in failed)
        assert all(r.length == 0.0 and not r.ok and r.error for r in failed)
        assert 0 < len(failed) < len(batch)

    def test_path_length_counts_skip_failures(self, batch):
        counts = path_length_counts(batch)
        want = {}
        for r in batch:
            if r.ok:
                want[len(r.path)] = want.get(len(r.path), 0) + 1
        assert dict(counts) == want


class TestSequence:
    @pytest.fixture(scope="class")
    def served(self):
        _, compiled, _ = TABLES["graph-corrupted"]
        stream = [(u, (3 * u + 1) % N) for u in range(N)] + [(5, 5), (0, 1)]
        reference = ServeEngine(compiled)
        return (ServeEngine(compiled).route_many(stream),
                [reference.route_recorded(u, v) for u, v in stream])

    def test_equality_in_both_operand_orders(self, served):
        batch, expected = served
        assert batch == expected and expected == batch
        assert not batch != expected and not expected != batch
        assert batch == RouteBatch.of(expected)
        assert batch != expected[:-1] and expected[:-1] != batch
        assert batch != RouteBatch.of(expected[:-1])
        other = list(expected)
        other[3] = ServeResult(99, 98, [99], 0.0, True)
        assert batch != other and other != batch
        assert batch != tuple(expected) and batch != "batch"

    def test_indexing(self, served):
        batch, expected = served
        n = len(expected)
        assert len(batch) == n
        for i in (0, 1, n - 1, -1, -n):
            assert batch[i] == expected[i]
            assert batch[i].cached == expected[i].cached
            assert isinstance(batch[i].path, list)
        for i in (n, n + 7, -n - 1):
            with pytest.raises(IndexError):
                batch[i]
        # A result is built per request: the caller owns its path.
        batch[0].path.append("scribble")
        assert batch[0] == expected[0]

    def test_slicing_gives_the_lists_slice(self, served):
        batch, expected = served
        for cut in (slice(None), slice(2, 9), slice(None, None, -1),
                    slice(-5, None), slice(4, 4), slice(1, 30, 7)):
            assert batch[cut] == expected[cut]
            assert isinstance(batch[cut], list)

    def test_empty(self):
        _, compiled, _ = TABLES["graph"]
        batch = ServeEngine(compiled).route_many([])
        assert len(batch) == 0 and not batch and batch == [] and [] == batch
        assert list(batch) == [] and batch[:] == []
        with pytest.raises(IndexError):
            batch[0]

    def test_pickle_round_trip(self, served):
        batch, expected = served
        clone = pickle.loads(pickle.dumps(batch))
        assert isinstance(clone, RouteBatch)
        assert clone == batch and clone == expected
        assert clone.errors == batch.errors and clone.status == batch.status
        assert [r.cached for r in clone] == [r.cached for r in expected]


class TestPool:
    def test_forked_pool_results_equal_single_process(self):
        """The columnar reply crosses a real pipe: errors, partial paths
        and cached flags come back in stream order."""
        graph, compiled, _ = TABLES["graph-corrupted"]
        pairs = make_workload("zipf", graph, compiled.nodes, 600, 4,
                              zipf_alpha=1.3)
        pairs += [(7, 0), (3, 3), (23, 31)]
        roomy = 2 * len(pairs)  # no eviction: `cached` is plan-independent
        single, expected = serve_pairs(
            ServeEngine(compiled, cache_size=roomy), graph, pairs)
        with ShardPool(compiled, graph, workers=2, start="fork",
                       cache_size=roomy, collect_results=True) as pool:
            merged, results = pool.serve(pairs)
        assert isinstance(results, RouteBatch)
        assert merged == single and merged.failures > 0
        assert results == expected and list(results) == list(expected)
        assert results.keys == pairs
        assert results.errors == expected.errors
        assert results.status == expected.status
        assert results.offsets == expected.offsets


class TestAllocationPin:
    def test_a_batch_keeps_no_object_per_query(self):
        graph, compiled, _ = TABLES["graph"]
        pairs = make_workload("zipf", graph, compiled.nodes, 20_000, 9,
                              zipf_alpha=1.2)
        engine = ServeEngine(compiled, cache_size=64)
        collections = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                collections[info["generation"]] += 1

        gc.collect()
        before = len(gc.get_objects())
        gc.callbacks.append(count)
        try:
            batch = engine.route_many(pairs)
        finally:
            gc.callbacks.remove(count)
        grown = len(gc.get_objects()) - before
        assert len(batch) == 20_000 and engine.cache.misses > 64
        # The batch, three of its columns, and at most a cache-full of
        # (path, length) entries -- not a result and a path list a query.
        assert grown < 64 * 2 + 50, grown
        assert collections[1:] == [0, 0], collections
