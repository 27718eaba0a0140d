"""Round-trip tests for scheme serialization, the id interner and the
format-2 layout."""

import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.routing import measure_stretch, route_in_tree, sample_pairs
from repro.routing.artifacts import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
)
from repro.routing.serialization import (
    FORMAT_VERSION,
    IdTable,
    decode_id,
    encode_id,
    graph_scheme_from_dict,
    graph_scheme_to_dict,
    load_scheme,
    save_scheme,
    tree_scheme_from_dict,
    tree_scheme_to_dict,
)
from repro.serve import compile_scheme
from repro.tz import build_centralized_scheme, build_tree_scheme


ids = st.recursive(
    st.one_of(
        st.integers(min_value=-10 ** 9, max_value=10 ** 9),
        st.text(max_size=12),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.none(),
        st.booleans(),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


class TestIdEncoding:
    @given(ids)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, value):
        assert decode_id(json.loads(json.dumps(encode_id(value)))) == value

    def test_unsupported_type_rejected(self):
        with pytest.raises(InputError):
            encode_id(object())

    def test_malformed_blob_rejected(self):
        with pytest.raises(InputError):
            decode_id({"x": 1, "y": 2})

    def test_unknown_tag_rejected(self):
        with pytest.raises(InputError):
            decode_id({"z": 1})


#: Ids that compare (or hash) equal as dict keys but are different ids.
look_alikes = st.sampled_from([
    1, 1.0, True, "1", (1,), (1.0,), (True,), ("1",), ((1,), 1), ((1.0,), 1),
    0, 0.0, -0.0, False, None, "", (), (None,),
])


class TestIdTable:
    @given(st.lists(st.one_of(ids, look_alikes), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_one_dense_index_per_distinct_encoded_id(self, values):
        """Two ids share an index iff their encoded blobs are the same
        JSON -- type-exact all the way down, so ``0.0`` and ``-0.0`` are
        two ids too; ``repr`` is the independent oracle for that -- and
        indices are dense in first-seen order."""
        table = IdTable()
        indices = [table.index(v) for v in values]
        first_seen = {}
        for value, idx in zip(values, indices):
            assert idx == first_seen.setdefault(repr(value), len(first_seen))
            assert table.encoded[idx] == encode_id(value)
            back = decode_id(json.loads(json.dumps(table.encoded[idx])))
            assert repr(back) == repr(value)
        assert len(table.encoded) == len(first_seen)
        assert [table.index(v) for v in values] == indices

    def test_unsupported_type_rejected(self):
        with pytest.raises(InputError):
            IdTable().index(object())


@pytest.fixture(scope="module")
def tree_scheme():
    graph = random_connected_graph(80, seed=211)
    tree = spanning_tree_of(graph, style="dfs", seed=211)
    return graph, tree, build_tree_scheme(tree, root_distance=lambda v: 1.0)


class TestTreeSchemeRoundTrip:
    def test_identity(self, tree_scheme):
        _, _, scheme = tree_scheme
        back = tree_scheme_from_dict(
            json.loads(json.dumps(tree_scheme_to_dict(scheme)))
        )
        assert back.tables == scheme.tables
        assert back.labels == scheme.labels
        assert back.tree_id == scheme.tree_id and back.root == scheme.root

    def test_routing_works_after_reload(self, tree_scheme):
        graph, tree, scheme = tree_scheme
        buf = io.StringIO()
        save_scheme(scheme, buf)
        buf.seek(0)
        loaded = load_scheme(buf)
        nodes = sorted(tree)
        weight = lambda u, v: graph[u][v]["weight"]
        a = route_in_tree(scheme, nodes[0], nodes[-1], weight_of=weight)
        b = route_in_tree(loaded, nodes[0], nodes[-1], weight_of=weight)
        assert a.path == b.path and a.length == b.length

    def test_wrong_kind_rejected(self, tree_scheme):
        _, _, scheme = tree_scheme
        blob = tree_scheme_to_dict(scheme)
        with pytest.raises(InputError):
            graph_scheme_from_dict(blob)

    def test_future_format_rejected(self, tree_scheme):
        _, _, scheme = tree_scheme
        blob = tree_scheme_to_dict(scheme)
        blob["format"] = 99
        with pytest.raises(InputError):
            tree_scheme_from_dict(blob)


class TestGraphSchemeRoundTrip:
    @pytest.fixture(scope="class")
    def built(self):
        graph = random_connected_graph(70, seed=212)
        return graph, build_centralized_scheme(graph, 2, seed=212)

    def test_identity(self, built):
        _, scheme = built
        back = graph_scheme_from_dict(
            json.loads(json.dumps(graph_scheme_to_dict(scheme)))
        )
        assert back.k == scheme.k
        assert back.labels == scheme.labels
        for v in scheme.tables:
            assert back.tables[v].trees == scheme.tables[v].trees

    def test_stretch_identical_after_reload(self, built):
        graph, scheme = built
        buf = io.StringIO()
        save_scheme(scheme, buf)
        buf.seek(0)
        loaded = load_scheme(buf)
        pairs = sample_pairs(list(graph.nodes), 50, seed=1)
        before = measure_stretch(scheme, graph, pairs)
        after = measure_stretch(loaded, graph, pairs)
        assert before.max_stretch == pytest.approx(after.max_stretch)

    def test_save_unknown_object_rejected(self):
        with pytest.raises(InputError):
            save_scheme(object(), io.StringIO())

    def test_load_unknown_kind_rejected(self):
        buf = io.StringIO(json.dumps(
            {"format": FORMAT_VERSION, "kind": "mystery"}))
        with pytest.raises(InputError):
            load_scheme(buf)


# ---------------------------------------------------------------------------
# Format 2: a literal golden blob, its size budget, and corrupt files
# ---------------------------------------------------------------------------

def _hand_built_scheme():
    """Four vertices of three id types under two trees: one rooted at 7
    spanning everything (``"c"`` hangs off a light edge), one rooted at
    ``"c"`` over ``{"c", 5}`` without root distances."""
    d = (2, "d")
    big_tables = {
        7: TreeTable(0, 3, None, 5, 0.0),
        5: TreeTable(1, 2, 7, d, 1.0),
        d: TreeTable(2, 2, 5, None, 2.5),
        "c": TreeTable(3, 3, 7, None, 4.0),
    }
    big_labels = {
        7: TreeLabel(0), 5: TreeLabel(1), d: TreeLabel(2),
        "c": TreeLabel(3, ((7, "c"),)),
    }
    small_tables = {"c": TreeTable(0, 1, None, 5), 5: TreeTable(1, 1, "c", None)}
    small_labels = {"c": TreeLabel(0), 5: TreeLabel(1)}
    trees = {
        7: TreeRoutingScheme(7, 7, big_tables, big_labels),
        "c": TreeRoutingScheme("c", "c", small_tables, small_labels),
    }
    tables = {
        v: GraphTable(v, {t: s.tables[v] for t, s in trees.items()
                          if v in s.tables})
        for v in (7, 5, d, "c")
    }
    labels = {
        7: GraphLabel(7, (None, (7, 0.0, big_labels[7]))),
        5: GraphLabel(5, (("c", 1.5, small_labels[5]), (7, 1.0, big_labels[5]))),
        d: GraphLabel(d, (None, (7, 2.5, big_labels[d]))),
        "c": GraphLabel("c", (("c", 0.0, small_labels["c"]),
                              (7, 4.0, big_labels["c"]))),
    }
    return GraphRoutingScheme(2, tables, labels, trees)


#: ``graph_scheme_to_dict(_hand_built_scheme())``, written out: ids are
#: interned in first-seen order (7, 5, (2, "d"), "c" -> 0..3) and every
#: other id-valued field is an index into ``"ids"``.
GOLDEN_BLOB = {
    "format": 2,
    "kind": "graph",
    "k": 2,
    "ids": [{"i": 7}, {"i": 5}, {"t": [{"i": 2}, {"s": "d"}]}, {"s": "c"}],
    # [v, [[tree, enter, exit, parent, heavy, root_distance], ...]]
    "tables": [
        [0, [[0, 0, 3, None, 1, 0.0]]],
        [1, [[0, 1, 2, 0, 2, 1.0], [3, 1, 1, 3, None, None]]],
        [2, [[0, 2, 2, 1, None, 2.5]]],
        [3, [[0, 3, 3, 0, None, 4.0], [3, 0, 1, None, 1, None]]],
    ],
    # [v, [null | [tree, dist, enter, [u0, v0, ...]], ...]]
    "labels": [
        [0, [None, [0, 0.0, 0, []]]],
        [1, [[3, 1.5, 1, []], [0, 1.0, 1, []]]],
        [2, [None, [0, 2.5, 2, []]]],
        [3, [[3, 0.0, 0, []], [0, 4.0, 3, [0, 3]]]],
    ],
    "tree_schemes": [
        [0, {
            "tree_id": 0,
            "root": 0,
            "tables": [
                [0, 0, 3, None, 1, 0.0],
                [1, 1, 2, 0, 2, 1.0],
                [2, 2, 2, 1, None, 2.5],
                [3, 3, 3, 0, None, 4.0],
            ],
            # [v, enter, [u0, v0, ...]]
            "labels": [[0, 0, []], [1, 1, []], [2, 2, []], [3, 3, [0, 3]]],
        }],
        [3, {
            "tree_id": 3,
            "root": 3,
            "tables": [[3, 0, 1, None, 1, None], [1, 1, 1, 3, None, None]],
            "labels": [[3, 0, []], [1, 1, []]],
        }],
    ],
}


def _count_dicts(blob):
    if isinstance(blob, dict):
        return 1 + sum(_count_dicts(x) for x in blob.values())
    if isinstance(blob, list):
        return sum(_count_dicts(x) for x in blob)
    return 0


class TestFormat:
    def test_golden_blob(self):
        scheme = _hand_built_scheme()
        assert graph_scheme_to_dict(scheme) == GOLDEN_BLOB
        assert graph_scheme_from_dict(
            json.loads(json.dumps(GOLDEN_BLOB))) == scheme

    def test_golden_tree_blob(self):
        """A lone tree scheme is the nested body plus its own header and
        id universe."""
        tree = _hand_built_scheme().tree_schemes["c"]
        blob = tree_scheme_to_dict(tree)
        assert blob == {
            "format": 2, "kind": "tree", "ids": [{"s": "c"}, {"i": 5}],
            "tree_id": 0, "root": 0,
            "tables": [[0, 0, 1, None, 1, None], [1, 1, 1, 0, None, None]],
            "labels": [[0, 0, []], [1, 1, []]],
        }
        assert tree_scheme_from_dict(json.loads(json.dumps(blob))) == tree

    def test_structure_budget(self):
        """No per-occurrence tag dicts, no per-row key dicts: the only
        objects are the id blobs, one body per tree scheme and the top
        level; and the text stays under 32 bytes per packed table word
        (format 1: 69)."""
        graph = random_connected_graph(70, seed=212)
        scheme = build_centralized_scheme(graph, 2, seed=212)
        blob = graph_scheme_to_dict(scheme)
        assert _count_dicts(blob) <= (
            len(blob["ids"]) + len(scheme.tree_schemes) + 1)
        words = compile_scheme(scheme, graph).table_words()
        assert len(json.dumps(blob)) <= 32 * words

    @pytest.mark.parametrize("kind", ["graph", "tree"])
    def test_saved_file_is_the_text_json_dump_writes(self, kind):
        """``save_scheme`` encodes with ``json.dumps`` (the C encoder);
        the text is byte for byte what the streaming ``json.dump`` wrote."""
        scheme = _hand_built_scheme()
        if kind == "tree":
            scheme, to_dict = scheme.tree_schemes[7], tree_scheme_to_dict
        else:
            to_dict = graph_scheme_to_dict
        saved, streamed = io.StringIO(), io.StringIO()
        save_scheme(scheme, saved)
        json.dump(to_dict(scheme), streamed)
        assert saved.getvalue() == streamed.getvalue()


def _truncate(text):
    return text[:len(text) // 2]


def _drop_field(row):
    del row[2]


def _strip_to_header(blob):
    for key in set(blob) - {"format", "kind"}:
        del blob[key]


def _set(index, value):
    def mutate(row):
        row[index] = value
    return mutate


#: name -> (what to corrupt, how, what the error must name).  "text" is
#: the saved file, "blob" the top level, "table" / "label" the first tree
#: table / tree label row of a tree-scheme body.
CORRUPTIONS = {
    "truncated-text": ("text", _truncate, "not valid JSON"),
    "top-level-list": ("text", lambda text: "[" + text + "]", "header"),
    "header-only": ("blob", _strip_to_header, "'ids'"),
    "short-row": ("table", _drop_field, "tables"),
    "format-1": ("blob", lambda blob: blob.update(format=1), "re-save"),
    "odd-light-list": ("label", lambda row: row[2].append(0), "labels"),
    "index-out-of-range": ("table", _set(3, 4), "tables"),
    "index-negative": ("table", _set(4, -1), "tables"),
    "vertex-index-negative": ("label", _set(0, -1), "labels"),
    "null-vertex": ("table", _set(0, None), "tables"),
    "bad-id-blob": ("blob", lambda blob: blob["ids"].append({"z": 1}), "id tag"),
}


class TestCorruptFiles:
    @pytest.mark.parametrize("kind", ["graph", "tree"])
    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_fails_typed_naming_the_section(self, kind, case):
        target, corrupt, named = CORRUPTIONS[case]
        blob = copy.deepcopy(GOLDEN_BLOB)
        if kind == "graph":
            body, from_dict = blob["tree_schemes"][0][1], graph_scheme_from_dict
        else:
            blob = body = {**blob["tree_schemes"][0][1], "format": 2,
                           "kind": "tree", "ids": blob["ids"]}
            from_dict = tree_scheme_from_dict
        load_scheme(io.StringIO(json.dumps(blob)))  # sound before the damage
        if target == "text":
            text = corrupt(json.dumps(blob))
        else:
            corrupt({"blob": blob, "table": body["tables"][0],
                     "label": body["labels"][0]}[target])
            text = json.dumps(blob)
            with pytest.raises(InputError, match=named):
                from_dict(blob)
        with pytest.raises(InputError, match=named):
            load_scheme(io.StringIO(text))


# ---------------------------------------------------------------------------
# Property tests: whole-scheme round trips over arbitrary vertex id types
# ---------------------------------------------------------------------------

#: Vertex ids a scheme may legitimately carry: ints, strings, and nested
#: tuples of both (what the tagged id encoding supports and real graph
#: generators produce, e.g. grid coordinates).
vertex_ids = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.text(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=999),
              st.integers(min_value=0, max_value=999)),
    st.tuples(st.text(max_size=4), st.integers(min_value=0, max_value=99)),
)


@st.composite
def parent_maps(draw, min_nodes=2, max_nodes=10):
    """A random rooted tree as a parent mapping over drawn vertex ids."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    labels = draw(st.lists(vertex_ids, min_size=n, max_size=n, unique=True))
    parent = {labels[0]: None}
    for i in range(1, n):
        parent[labels[i]] = labels[draw(
            st.integers(min_value=0, max_value=i - 1))]
    return parent


class TestSchemeRoundTripProperties:
    @given(parent_maps())
    @settings(max_examples=40, deadline=None)
    def test_tree_scheme_round_trip(self, parent):
        scheme = build_tree_scheme(parent, root_distance=lambda v: 1.0)
        back = tree_scheme_from_dict(
            json.loads(json.dumps(tree_scheme_to_dict(scheme)))
        )
        assert back.tree_id == scheme.tree_id
        assert back.root == scheme.root
        assert back.tables == scheme.tables
        assert back.labels == scheme.labels

    @given(parent_maps(min_nodes=3, max_nodes=9),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_graph_scheme_round_trip(self, parent, k, seed):
        import networkx as nx

        graph = nx.Graph()
        for child, par in parent.items():
            graph.add_node(child)
            if par is not None:
                graph.add_edge(child, par, weight=1.0)
        scheme = build_centralized_scheme(graph, k, seed=seed)
        back = graph_scheme_from_dict(
            json.loads(json.dumps(graph_scheme_to_dict(scheme)))
        )
        assert back.k == scheme.k
        assert back.labels == scheme.labels
        assert set(back.tables) == set(scheme.tables)
        for v in scheme.tables:
            assert back.tables[v].trees == scheme.tables[v].trees
        assert {t: s.tables for t, s in back.tree_schemes.items()} == \
               {t: s.tables for t, s in scheme.tree_schemes.items()}
