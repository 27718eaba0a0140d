"""Round-trip tests for scheme serialization, the id interner and the
format-3 layout."""

import copy
import dataclasses
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
from repro.shard import lower_compiled
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

    @pytest.mark.parametrize("blob, found", [
        ({"i": "7"}, "str"), ({"i": True}, "bool"), ({"i": 1.0}, "float"),
        ({"i": [1]}, "list"), ({"i": None}, "NoneType"),
        ({"b": 3}, "int"), ({"b": "true"}, "str"),
        ({"f": 1}, "int"), ({"f": "1.0"}, "str"),
        ({"s": 1}, "int"), ({"s": ["a"]}, "list"),
        ({"t": {"i": 1}}, "dict"), ({"t": "ab"}, "str"),
        ({"t": [{"i": 2}, {"i": "2"}]}, "str"),
    ])
    def test_value_of_the_wrong_type_rejected(self, blob, found):
        """The tag says what the value is; a value of another type is not
        an id (it used to load as whatever JSON held)."""
        tag = next(iter(blob))
        with pytest.raises(InputError, match=f"tag '[{tag}i]' .* {found}"):
            decode_id(blob)


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

    def test_load_restores_the_sharing_the_builders_create(self, built):
        """A vertex's table *is* the set of its tree tables: every tree
        table and tree label is one object, reached from the vertex and
        from its tree scheme alike."""
        _, scheme = built
        buf = io.StringIO()
        save_scheme(scheme, buf)
        buf.seek(0)
        loaded = load_scheme(buf)
        assert loaded == scheme
        for view in (scheme, loaded):
            shared = view.tree_schemes
            for v, table in view.tables.items():
                assert table.trees
                for t, tree_table in table.trees.items():
                    assert tree_table is shared[t].tables[v]
            for v, label in view.labels.items():
                for t, _, tree_label in filter(None, label.entries):
                    assert tree_label is shared[t].labels[v]

    def test_save_unknown_object_rejected(self):
        with pytest.raises(InputError):
            save_scheme(object(), io.StringIO())

    def test_load_unknown_kind_rejected(self):
        buf = io.StringIO(json.dumps(
            {"format": FORMAT_VERSION, "kind": "mystery"}))
        with pytest.raises(InputError):
            load_scheme(buf)


# ---------------------------------------------------------------------------
# Format 3: a literal golden blob, its size budget, and corrupt files
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
    "format": 3,
    "kind": "graph",
    "k": 2,
    "ids": [{"i": 7}, {"i": 5}, {"t": [{"i": 2}, {"s": "d"}]}, {"s": "c"}],
    "tree_schemes": [
        [0, {
            "tree_id": 0,
            "root": 0,
            "tables": [
                [0, 1, 2, 3],            # v
                [0, 1, 2, 3],            # enter
                [3, 2, 2, 3],            # exit
                [None, 0, 1, 0],         # parent
                [1, 2, None, None],      # heavy
                [0.0, 1.0, 2.5, 4.0],    # root_distance
            ],
            "labels": [
                [0, 1, 2, 3],            # v
                [0, 1, 2, 3],            # enter
                [0, 0, 0, 1],            # light-edge count
                [0, 3],                  # u0, v0, ... of all of them
            ],
        }],
        [3, {
            "tree_id": 3,
            "root": 3,
            "tables": [[3, 1], [0, 1], [1, 1], [None, 3], [1, None],
                       [None, None]],
            "labels": [[3, 1], [0, 1], [0, 0], []],
        }],
    ],
    # [v, [tree, ...]]: the tables are the tree schemes' own
    "tables": [[0, [0]], [1, [0, 3]], [2, [0]], [3, [0, 3]]],
    # [v, [null | [tree, dist], ...]]
    "labels": [
        [0, [None, [0, 0.0]]],
        [1, [[3, 1.5], [0, 1.0]]],
        [2, [None, [0, 2.5]]],
        [3, [[3, 0.0], [0, 4.0]]],
    ],
}


def _out_of_sync_scheme():
    """:func:`_hand_built_scheme` after its per-vertex view has drifted
    from its tree schemes in each way there is: a table and a label that
    differ from the tree scheme's, a vertex the tree scheme lost, and a
    tree only a vertex knows."""
    scheme = _hand_built_scheme()
    big = scheme.tree_schemes[7]
    scheme.tables[5].trees[7] = dataclasses.replace(
        big.tables[5], root_distance=9.0)
    scheme.labels["c"] = GraphLabel("c", (
        ("c", 0.0, scheme.tree_schemes["c"].labels["c"]),
        (7, 4.0, TreeLabel(3, ((7, "c"), (5, 7)))),
    ))
    small = scheme.tree_schemes["c"]
    del small.tables[5], small.labels[5]
    scheme.tables[7].trees["x"] = TreeTable(0, 0, None, None)
    scheme.labels[7] = GraphLabel(7, (("x", 0.5, TreeLabel(0)),
                                      scheme.labels[7].entries[1]))
    return scheme


#: The graph-level sections of ``graph_scheme_to_dict(_out_of_sync_scheme())``
#: (``"x"`` is id 4): what is not the tree scheme's is written in full.
OUT_OF_SYNC_SECTIONS = {
    # [v, [tree | [tree, enter, exit, parent, heavy, root_distance], ...]]
    "tables": [
        [0, [0, [4, 0, 0, None, None, None]]],
        [1, [[0, 1, 2, 0, 2, 9.0], [3, 1, 1, 3, None, None]]],
        [2, [0]],
        [3, [0, 3]],
    ],
    # [v, [null | [tree, dist] | [tree, dist, enter, [u0, v0, ...]], ...]]
    "labels": [
        [0, [[4, 0.5, 0, []], [0, 0.0]]],
        [1, [[3, 1.5, 1, []], [0, 1.0]]],
        [2, [None, [0, 2.5]]],
        [3, [[3, 0.0], [0, 4.0, 3, [0, 3, 1, 0]]]],
    ],
}


def _count_dicts(blob):
    if isinstance(blob, dict):
        return 1 + sum(_count_dicts(x) for x in blob.values())
    if isinstance(blob, list):
        return sum(_count_dicts(x) for x in blob)
    return 0


def _count_containers(blob):
    if isinstance(blob, dict):
        return 1 + sum(_count_containers(x) for x in blob.values())
    if isinstance(blob, list):
        return 1 + sum(_count_containers(x) for x in blob)
    return 0


class TestFormat:
    def test_golden_blob(self):
        scheme = _hand_built_scheme()
        assert graph_scheme_to_dict(scheme) == GOLDEN_BLOB
        assert graph_scheme_from_dict(
            json.loads(json.dumps(GOLDEN_BLOB))) == scheme

    def test_out_of_sync_entries_are_written_in_full(self):
        scheme = _out_of_sync_scheme()
        blob = graph_scheme_to_dict(scheme)
        assert blob["ids"] == GOLDEN_BLOB["ids"] + [{"s": "x"}]
        assert {key: blob[key] for key in OUT_OF_SYNC_SECTIONS} == \
            OUT_OF_SYNC_SECTIONS
        back = graph_scheme_from_dict(json.loads(json.dumps(blob)))
        assert back == scheme
        assert [list(t.trees) for t in back.tables.values()] == \
            [list(t.trees) for t in scheme.tables.values()]

    def test_golden_tree_blob(self):
        """A lone tree scheme is the nested body plus its own header and
        id universe."""
        tree = _hand_built_scheme().tree_schemes["c"]
        blob = tree_scheme_to_dict(tree)
        assert blob == {
            "format": 3, "kind": "tree", "ids": [{"s": "c"}, {"i": 5}],
            "tree_id": 0, "root": 0,
            "tables": [[0, 1], [0, 1], [1, 1], [None, 0], [1, None],
                       [None, None]],
            "labels": [[0, 1], [0, 1], [0, 0], []],
        }
        assert tree_scheme_from_dict(json.loads(json.dumps(blob))) == tree

    def test_structure_budget(self):
        """No per-occurrence tag dicts, no per-row key dicts: the only
        objects are the id blobs, one body per tree scheme and the top
        level; the text stays under 20 bytes per packed table word
        (format 2: 26, format 1: 69); and no container is per membership:
        14 per tree (its pair, body and columns), ``5 + k`` per vertex (id
        blob, table and label pair with their entry lists, ``k`` label
        entries) and the five top-level ones -- format 2's count grew with
        the memberships, and that is what the cyclic collector walked."""
        graph = random_connected_graph(70, seed=212)
        scheme = build_centralized_scheme(graph, 2, seed=212)
        blob = graph_scheme_to_dict(scheme)
        assert _count_dicts(blob) <= (
            len(blob["ids"]) + len(scheme.tree_schemes) + 1)
        words = compile_scheme(scheme, graph).table_words()
        assert len(json.dumps(blob)) <= 20 * words
        assert _count_containers(blob) <= (
            14 * len(scheme.tree_schemes)
            + (5 + scheme.k) * len(scheme.tables) + 5)

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


def _drop_field(columns):
    del columns[2][0]


def _strip_to_header(blob):
    for key in set(blob) - {"format", "kind"}:
        del blob[key]


def _set(index, value):
    def mutate(columns):
        columns[index][0] = value
    return mutate


def _set_column(index, value):
    def mutate(columns):
        columns[index] = value
    return mutate


def _set_entry(section, value):
    """Overwrite the last entry of the first vertex (7, id 0) of a
    graph-level section."""
    def mutate(blob):
        blob[section][0][1][-1] = value
    return mutate


#: name -> (what to corrupt, how, what the error must name).  "text" is
#: the saved file, "blob" the top level, "table" / "label" the table /
#: label columns of a tree-scheme body, whose first row is position 0 of
#: every column.
CORRUPTIONS = {
    "truncated-text": ("text", _truncate, "not valid JSON"),
    "top-level-list": ("text", lambda text: "[" + text + "]", "header"),
    "header-only": ("blob", _strip_to_header, "'ids'"),
    "short-row": ("table", _drop_field, "tables"),
    "format-1": ("blob", lambda blob: blob.update(format=1), "re-save"),
    "format-2": ("blob", lambda blob: blob.update(format=2), "re-save"),
    "odd-light-list": ("label", lambda columns: columns[3].append(0), "labels"),
    "index-out-of-range": ("table", _set(3, 4), "tables"),
    "index-negative": ("table", _set(4, -1), "tables"),
    "vertex-index-negative": ("label", _set(0, -1), "labels"),
    "null-vertex": ("table", _set(0, None), "tables"),
    "bad-id-blob": ("blob", lambda blob: blob["ids"].append({"z": 1}), "id tag"),
    "bad-id-value": ("blob", lambda blob: blob["ids"].append({"i": "7"}), "'ids'"),
    "long-column": ("table", lambda columns: columns[5].append(1.0), "tables"),
    "missing-column": ("table", lambda columns: columns.pop(), "tables"),
    "column-not-a-list": (
        "table", _set_column(1, {"0": 0, "1": 1, "2": 2, "3": 3}), "tables"),
    "short-label-column": ("label", lambda columns: columns[1].pop(), "labels"),
    "light-list-too-long": (
        "label", lambda columns: columns[3].extend([0, 3]), "labels"),
    "light-count-too-large": ("label", _set(2, 1), "labels"),
    # the counts still sum to the one edge there is
    "light-count-negative": ("label", _set_column(2, [-1, 1, 1, 0]), "labels"),
}

#: The same for the graph-level sections, which name trees and leave the
#: rows to ``"tree_schemes"``: id 1 (vertex 5) is no tree, vertex 7 is not
#: in tree 3 (``"c"``).
GRAPH_CORRUPTIONS = {
    "table-of-unknown-tree": (_set_entry("tables", 1), "'tables'"),
    "table-of-vertex-not-in-tree": (_set_entry("tables", 3), "'tables'"),
    "table-tree-index-negative": (_set_entry("tables", -1), "'tables'"),
    "table-tree-index-out-of-range": (_set_entry("tables", 4), "'tables'"),
    "table-short-full-row": (_set_entry("tables", [0, 0, 3, None, 1]), "'tables'"),
    "label-of-unknown-tree": (_set_entry("labels", [1, 0.0]), "'labels'"),
    "label-of-vertex-not-in-tree": (_set_entry("labels", [3, 0.0]), "'labels'"),
    "label-tree-index-negative": (_set_entry("labels", [-1, 0.0]), "'labels'"),
    "label-entry-of-three": (_set_entry("labels", [0, 0.0, 0]), "'labels'"),
    "label-entry-not-a-list": (_set_entry("labels", 0), "'labels'"),
    "label-full-row-odd-light-list": (
        _set_entry("labels", [0, 0.0, 0, [0]]), "'labels'"),
    "tree-schemes-missing": (lambda blob: blob.pop("tree_schemes"),
                             "'tree_schemes'"),
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
            blob = body = {**blob["tree_schemes"][0][1], "format": 3,
                           "kind": "tree", "ids": blob["ids"]}
            from_dict = tree_scheme_from_dict
        load_scheme(io.StringIO(json.dumps(blob)))  # sound before the damage
        if target == "text":
            text = corrupt(json.dumps(blob))
        else:
            corrupt({"blob": blob, "table": body["tables"],
                     "label": body["labels"]}[target])
            text = json.dumps(blob)
            with pytest.raises(InputError, match=named):
                from_dict(blob)
        with pytest.raises(InputError, match=named):
            load_scheme(io.StringIO(text))

    @pytest.mark.parametrize("case", list(GRAPH_CORRUPTIONS))
    def test_graph_sections_fail_typed_naming_the_section(self, case):
        corrupt, named = GRAPH_CORRUPTIONS[case]
        blob = copy.deepcopy(GOLDEN_BLOB)
        corrupt(blob)
        with pytest.raises(InputError, match=named):
            graph_scheme_from_dict(blob)
        with pytest.raises(InputError, match=named):
            load_scheme(io.StringIO(json.dumps(blob)))


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


# ---------------------------------------------------------------------------
# Property test: a per-vertex view out of sync with the tree schemes
# ---------------------------------------------------------------------------

def _replace_table_field(scheme, data):
    v = data.draw(st.sampled_from(list(scheme.tables)))
    t = data.draw(st.sampled_from(list(scheme.tables[v].trees)))
    change = data.draw(st.sampled_from([
        {"enter": 10 ** 6}, {"exit_": -1}, {"parent": v}, {"heavy": None},
        {"root_distance": 0.125}, {"root_distance": None}]))
    scheme.tables[v].trees[t] = dataclasses.replace(
        scheme.tables[v].trees[t], **change)


def _replace_label(scheme, data):
    v = data.draw(st.sampled_from(list(scheme.labels)))
    scheme.labels[v] = GraphLabel(v, tuple(
        entry and (entry[0], entry[1],
                   TreeLabel(entry[2].enter, entry[2].light_edges + ((v, v),)))
        for entry in scheme.labels[v].entries))


def _drop_vertex_from_tree(scheme, data):
    t = data.draw(st.sampled_from(list(scheme.tree_schemes)))
    tree = scheme.tree_schemes[t]
    v = data.draw(st.sampled_from(list(tree.tables)))
    del tree.tables[v], tree.labels[v]


def _drop_tree_scheme(scheme, data):
    del scheme.tree_schemes[data.draw(st.sampled_from(list(scheme.tree_schemes)))]


def _add_private_tree(scheme, data):
    v = data.draw(st.sampled_from(list(scheme.tables)))
    private = ("private", v)
    scheme.tables[v].trees[private] = TreeTable(0, 0, None, None, 0.0)
    scheme.labels[v] = GraphLabel(
        v, scheme.labels[v].entries[:-1] + ((private, 0.0, TreeLabel(0)),))


def _reorder_trees(scheme, data):
    v = data.draw(st.sampled_from(list(scheme.tables)))
    scheme.tables[v].trees = dict(reversed(scheme.tables[v].trees.items()))


DAMAGES = [_replace_table_field, _replace_label, _drop_vertex_from_tree,
           _drop_tree_scheme, _add_private_tree, _reorder_trees]


class TestOutOfSyncRoundTrip:
    """``tree_schemes`` is the only copy of what it shares with the
    per-vertex view; whatever the view holds that is not the tree
    scheme's must still come back exactly, because the reference router
    and ``compile_scheme`` read the per-vertex view alone."""

    @pytest.fixture(scope="class")
    def built(self):
        graph = random_connected_graph(30, seed=213)
        return graph, build_centralized_scheme(graph, 2, seed=213)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_view_round_trips_exactly(self, built, data):
        graph, scheme = built
        damaged = copy.deepcopy(scheme)  # keeps the sharing
        for damage in data.draw(st.lists(st.sampled_from(DAMAGES),
                                         min_size=1, max_size=4)):
            damage(damaged, data)
        buf = io.StringIO()
        save_scheme(damaged, buf)
        buf.seek(0)
        loaded = load_scheme(buf)
        assert loaded == damaged
        assert [list(t.trees) for t in loaded.tables.values()] == \
            [list(t.trees) for t in damaged.tables.values()]
        assert lower_compiled(compile_scheme(loaded, graph)).payload == \
            lower_compiled(compile_scheme(damaged, graph)).payload
