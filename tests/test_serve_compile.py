"""Unit tests for the serve compiler (packed tables)."""

import io

import pytest

from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.routing.router import sample_pairs
from repro.routing.serialization import load_scheme, save_scheme
from repro.serve import ServeEngine, compile_scheme
from repro.serve.compile import NO_VERTEX, _jsonable_summary
from repro.tz import build_centralized_scheme, build_tree_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(60, seed=71)
    scheme = build_centralized_scheme(graph, 2, seed=71)
    return graph, scheme, compile_scheme(scheme, graph)


class TestPackedStructure:
    def test_local_index_inverts_ids(self, built):
        _, _, compiled = built
        for tree in compiled.trees:
            assert len(tree.ids) == tree.size == len(tree.local)
            for li, vid in enumerate(tree.ids):
                assert tree.local[vid] == li
            assert tree.hot is not None and len(tree.hot) == 10

    def test_arrays_parallel(self, built):
        _, _, compiled = built
        for tree in compiled.trees:
            n = tree.size
            for arr in (tree.enter, tree.exit_, tree.parent,
                        tree.parent_id, tree.parent_w, tree.heavy,
                        tree.heavy_id, tree.heavy_w):
                assert len(arr) == n

    def test_dfs_intervals_nest(self, built):
        _, _, compiled = built
        for tree in compiled.trees:
            for li in range(tree.size):
                assert tree.enter[li] <= tree.exit_[li]
                pi = tree.parent[li]
                if pi != NO_VERTEX:
                    assert tree.enter[pi] <= tree.enter[li] <= tree.exit_[pi]

    def test_membership_matches_per_vertex_tables(self, built):
        _, scheme, compiled = built
        seen = {t.tree_id: t for t in compiled.trees}
        for v, table in scheme.tables.items():
            for tid in table.trees:
                assert v in seen[tid].local
        assert compiled.table_ids == frozenset(scheme.tables)

    def test_decisions_mirror_entries(self, built):
        _, scheme, compiled = built
        trees = {t.tree_id: t for t in compiled.trees}
        assert list(compiled.decisions) == list(scheme.labels)
        for v, label in scheme.labels.items():
            usable = [(level, entry) for level, entry
                      in enumerate(label.entries)
                      if entry is not None and entry[0] in trees]
            cands = compiled.decisions[v]
            assert len(cands) == len(usable)
            for (level, (tid, dist, tree_label)), \
                    (local, (tree, packed), got_level, got_dist) \
                    in zip(usable, cands):
                assert tree is trees[tid]
                assert local is tree.local
                assert (got_level, got_dist) == (level, dist)
                assert packed.enter == tree_label.enter
                assert packed.words == tree_label.word_size()

    def test_edge_weights_match_graph(self, built):
        graph, _, compiled = built
        for tree in compiled.trees:
            for li in range(tree.size):
                u, pid, w = tree.ids[li], tree.parent_id[li], tree.parent_w[li]
                if pid is None:
                    assert w is None
                elif graph.has_edge(u, pid):
                    assert w == pytest.approx(graph[u][pid]["weight"])

    def test_table_words_positive(self, built):
        _, _, compiled = built
        assert compiled.table_words() == 5 * sum(t.size
                                                 for t in compiled.trees)

    def test_jsonable_summary(self, built):
        _, _, compiled = built
        blob = _jsonable_summary(compiled)
        assert blob["kind"] == "graph" and blob["k"] == compiled.k
        assert blob["n"] == compiled.n
        assert blob["packed_words"] == compiled.table_words()


class TestCompileEntryPoints:
    def test_graph_scheme_requires_graph(self, built):
        _, scheme, _ = built
        with pytest.raises(InputError):
            compile_scheme(scheme)

    def test_unknown_object_rejected(self):
        with pytest.raises(InputError):
            compile_scheme(object())

    def test_tree_scheme_without_graph(self):
        graph = random_connected_graph(40, seed=73)
        parent = spanning_tree_of(graph, style="dfs", seed=73)
        scheme = build_tree_scheme(parent)
        compiled = compile_scheme(scheme)
        assert compiled.kind == "tree"
        assert compiled.default_budget == 2 * len(scheme.tables) + 2
        assert compiled.table_words() == 5 * compiled.tree.size
        assert _jsonable_summary(compiled)["kind"] == "tree"

    def test_compile_from_json_serves_identically(self, built):
        graph, scheme, compiled = built
        buf = io.StringIO()
        save_scheme(scheme, buf)
        buf.seek(0)
        reloaded = compile_scheme(load_scheme(buf), graph)
        pairs = sample_pairs(list(graph.nodes), 100, seed=79)
        a = ServeEngine(compiled).route_many(pairs)
        b = ServeEngine(reloaded).route_many(pairs)
        assert [(r.path, r.length) for r in a] == \
               [(r.path, r.length) for r in b]
