"""Unit tests for routing artifacts and the pure forwarding rule."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import Network
from repro.core.build import build_distributed_scheme
from repro.errors import RoutingFailure
from repro.graphs import random_connected_graph
from repro.routing import (
    GraphLabel,
    GraphTable,
    Header,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
    tree_forward,
)
from repro.routing.artifacts import graph_tables


def table(enter, exit_, parent=None, heavy=None):
    return TreeTable(enter=enter, exit_=exit_, parent=parent, heavy=heavy)


class TestWordSizes:
    def test_tree_table_is_four_words(self):
        assert table(1, 10).word_size() == 4

    def test_tables_hold_only_what_tree_routing_reads(self):
        """A tree table is the four fields ``tree_forward`` reads, so a
        vertex's table is its id plus a tree id and four words per
        cluster tree that holds it."""
        assert [f.name for f in fields(TreeTable)] == [
            "enter", "exit_", "parent", "heavy"]
        graph = random_connected_graph(150, seed=7)
        scheme = build_distributed_scheme(
            graph, 3, seed=7, net=Network(graph)).scheme
        for table_ in scheme.tables.values():
            assert table_.word_size() == 1 + 5 * len(table_.trees)

    def test_tree_label_scales_with_light_edges(self):
        assert TreeLabel(enter=3).word_size() == 1
        assert TreeLabel(enter=3, light_edges=((1, 2), (3, 4))).word_size() == 5

    def test_graph_table_sums_trees(self):
        gt = GraphTable(vertex="v")
        gt.trees["r1"] = table(1, 5)
        gt.trees["r2"] = table(2, 3)
        assert gt.word_size() == 1 + (1 + 4) + (1 + 4)

    def test_graph_label_counts_entries(self):
        label = GraphLabel(
            vertex="v",
            entries=(
                ("r", 1.0, TreeLabel(enter=1)),
                None,
            ),
        )
        # 1 (id) + [1 tag + 2 + 1] + [1 tag]
        assert label.word_size() == 6

    def test_header_words(self):
        h = Header(tree="r", tree_label=TreeLabel(enter=1))
        assert h.word_size() == 2


class TestContains:
    def test_inside(self):
        assert table(2, 9).contains(5)

    def test_boundaries_inclusive(self):
        t = table(2, 9)
        assert t.contains(2) and t.contains(9)

    def test_outside(self):
        assert not table(2, 9).contains(10)


class TestNextLightHop:
    def test_finds_matching_edge(self):
        label = TreeLabel(enter=1, light_edges=(("a", "b"), ("c", "d")))
        assert label.next_light_hop("c") == "d"

    def test_none_when_absent(self):
        label = TreeLabel(enter=1, light_edges=(("a", "b"),))
        assert label.next_light_hop("z") is None


class TestTreeForward:
    def test_arrived(self):
        assert tree_forward("v", table(4, 8), TreeLabel(enter=4)) is None

    def test_outside_goes_to_parent(self):
        t = table(4, 8, parent="p", heavy="h")
        assert tree_forward("v", t, TreeLabel(enter=2)) == "p"

    def test_inside_light_edge_wins(self):
        t = table(2, 9, parent="p", heavy="h")
        label = TreeLabel(enter=5, light_edges=(("v", "x"),))
        assert tree_forward("v", t, label) == "x"

    def test_inside_defaults_to_heavy(self):
        t = table(2, 9, parent="p", heavy="h")
        assert tree_forward("v", t, TreeLabel(enter=5)) == "h"

    def test_root_with_outside_target_fails(self):
        t = table(2, 9, parent=None, heavy="h")
        with pytest.raises(RoutingFailure):
            tree_forward("v", t, TreeLabel(enter=1))

    def test_leaf_with_inside_target_fails(self):
        t = table(4, 4, parent="p", heavy=None)
        # enter==4 would be arrival; an interval of width 1 cannot strictly
        # contain another vertex, so craft an inconsistent table:
        t2 = table(4, 6, parent="p", heavy=None)
        with pytest.raises(RoutingFailure):
            tree_forward("v", t2, TreeLabel(enter=5))


# ---------------------------------------------------------------------------
# Columnar tree schemes: the views, equality, word sizes, GraphTable.trees
# ---------------------------------------------------------------------------

small_ints = st.integers(min_value=-5, max_value=40)


@st.composite
def tree_maps(draw):
    """Per-vertex tables and labels of one tree scheme -- not necessarily
    a well-formed one: the views must give back whatever went in, with
    the labels over their own vertex set and order."""
    vertices = draw(st.lists(st.one_of(small_ints, st.text(max_size=3)),
                             min_size=1, max_size=8, unique=True))
    neighbour = st.none() | st.sampled_from(vertices)
    tables = {
        v: TreeTable(draw(small_ints), draw(small_ints), draw(neighbour),
                     draw(neighbour))
        for v in vertices
    }
    labelled = draw(st.permutations(vertices))[:draw(
        st.integers(min_value=1, max_value=len(vertices)))]
    edge = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    labels = {
        v: TreeLabel(draw(small_ints),
                     tuple(draw(st.lists(edge, max_size=3))))
        for v in labelled
    }
    return tables, labels


def _permuted(data, mapping):
    return dict(data.draw(st.permutations(list(mapping.items()))))


class TestColumnarTreeScheme:
    @given(tree_maps())
    @settings(max_examples=80, deadline=None)
    def test_views_equal_the_maps_it_was_made_from(self, maps):
        tables, labels = maps
        scheme = TreeRoutingScheme.from_maps("t", "r", tables, labels)
        assert dict(scheme.tables) == tables and dict(scheme.labels) == labels
        assert list(scheme.tables) == list(tables)
        assert list(scheme.labels) == list(labels)
        assert len(scheme.tables) == len(tables) and "absent" not in scheme.tables

    @given(tree_maps(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equality_ignores_vertex_order_and_sees_one_field(self, maps, data):
        tables, labels = maps
        scheme = TreeRoutingScheme.from_maps("t", "r", tables, labels)
        permuted = TreeRoutingScheme.from_maps(
            "t", "r", _permuted(data, tables), _permuted(data, labels))
        assert permuted == scheme
        v = data.draw(st.sampled_from(list(tables)))
        field = data.draw(st.sampled_from(
            ["enter", "exit_", "parent", "heavy"]))
        old = getattr(tables[v], field)
        if field in ("enter", "exit_"):
            new = old + 1
        else:
            new = "elsewhere"
        changed = {**tables, v: TreeTable(**{
            **vars(tables[v]), field: new})}
        assert TreeRoutingScheme.from_maps("t", "r", changed, labels) != scheme
        w = data.draw(st.sampled_from(list(labels)))
        relabelled = {**labels, w: TreeLabel(labels[w].enter,
                                             labels[w].light_edges + ((w, w),))}
        assert TreeRoutingScheme.from_maps("t", "r", tables, relabelled) != scheme

    @given(tree_maps())
    @settings(max_examples=80, deadline=None)
    def test_column_word_sizes_are_the_per_object_sums(self, maps):
        tables, labels = maps
        scheme = TreeRoutingScheme.from_maps("t", "r", tables, labels)
        for v, table in tables.items():
            assert scheme.table_words(v) == table.word_size()
        for v, label in labels.items():
            assert scheme.label_words(v) == label.word_size()
        assert scheme.max_table_words() == max(
            t.word_size() for t in tables.values())
        assert scheme.max_label_words() == max(
            l.word_size() for l in labels.values())
        for v, held in graph_tables(tables, {"t": scheme}).items():
            assert held.word_size() == GraphTable(v, dict(held.trees)).word_size()

    @given(tree_maps(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_del_drops_a_vertex_from_the_view_not_from_references(
            self, maps, data):
        tables, labels = maps
        scheme = TreeRoutingScheme.from_maps("t", "r", tables, labels)
        held = graph_tables(tables, {"t": scheme})
        v = data.draw(st.sampled_from(list(tables)))
        del scheme.tables[v]
        assert v not in scheme.tables and len(scheme.tables) == len(tables) - 1
        assert dict(scheme.labels) == labels
        assert held[v].trees["t"] == tables[v]
        assert held[v].trees.entries["t"] is scheme
        with pytest.raises(TypeError, match="read-only"):
            scheme.tables[v] = tables[v]


#: what one step does to ``GraphTable.trees`` and to a plain dict alike
TREE_OPS = st.lists(st.tuples(
    st.sampled_from(["set", "pop", "del", "get", "contains", "clear"]),
    st.sampled_from(["a", "b", "c", "d"]),
    st.builds(TreeTable, small_ints, small_ints, st.none(), st.none())),
    max_size=12)


class TestGraphTableTrees:
    @given(TREE_OPS)
    @settings(max_examples=100, deadline=None)
    def test_setting_and_popping_behave_like_a_dict(self, ops):
        """The references :func:`graph_tables` stores read as tables;
        what is set is stored as is; missing keys fail as in a dict."""
        schemes = {
            t: TreeRoutingScheme.from_maps(
                t, "v", {"v": TreeTable(i, i, None, None)},
                {"v": TreeLabel(i)})
            for i, t in enumerate("abc")
        }
        trees = graph_tables(["v"], schemes)["v"].trees
        model = {t: s.tables["v"] for t, s in schemes.items()}
        for op, tree, table in ops:
            if op == "set":
                trees[tree] = model[tree] = table
            elif op == "pop":
                assert trees.pop(tree, None) == model.pop(tree, None)
            elif op == "del":
                if tree in model:
                    del trees[tree], model[tree]
                else:
                    with pytest.raises(KeyError):
                        del trees[tree]
            elif op == "get":
                assert trees.get(tree) == model.get(tree)
            elif op == "contains":
                assert (tree in trees) == (tree in model)
            else:
                trees.clear()
                model.clear()
            assert dict(trees) == model and list(trees) == list(model)
