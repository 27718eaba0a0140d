"""Remaining unit coverage: error types, composite baseline artifacts,
scheme-level helpers."""

import pytest

from repro.baselines.en16_tree import CompositeLabel, CompositeTable
from repro.errors import (
    CongestModelViolation,
    InputError,
    InvariantViolation,
    MemoryAccountingError,
    ReproError,
    RoutingFailure,
)
from repro.routing import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    TreeLabel,
    TreeTable,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        CongestModelViolation, InputError, InvariantViolation,
        MemoryAccountingError, RoutingFailure,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise CongestModelViolation("x")


class TestCompositeArtifacts:
    def _label(self):
        return CompositeLabel(
            local_root="w",
            virtual_label=TreeLabel(enter=3, light_edges=(("a", "b"),)),
            crossing_labels=(("a", "b", TreeLabel(enter=9)),),
            local_label=TreeLabel(enter=5),
        )

    def test_label_word_size_counts_crossings(self):
        label = self._label()
        # 1 root + virtual(1+2) + local(1) + crossing(2 + 1)
        assert label.word_size() == 1 + 3 + 1 + 3

    def test_table_word_size_with_virtual_parts(self):
        table = CompositeTable(
            local_root="w",
            local_table=TreeTable(enter=1, exit_=4, parent=None, heavy="c"),
            virtual_table=TreeTable(enter=1, exit_=2, parent=None, heavy=None),
            heavy_virtual_child="h",
            heavy_crossing=TreeLabel(enter=2),
        )
        # 1 root + local 4 + virtual 4 + (1 + crossing 1)
        assert table.word_size() == 1 + 4 + 4 + 2

    def test_table_word_size_ordinary_vertex(self):
        table = CompositeTable(
            local_root="w",
            local_table=TreeTable(enter=1, exit_=4, parent="p", heavy=None),
            virtual_table=None,
            heavy_virtual_child=None,
            heavy_crossing=None,
        )
        assert table.word_size() == 1 + 4


class TestGraphSchemeHelpers:
    def _scheme(self):
        t = TreeTable(enter=1, exit_=2, parent=None, heavy=None)
        tables = {
            "u": GraphTable(vertex="u", trees={"r": t}),
            "v": GraphTable(vertex="v", trees={"r": t, "s": t}),
        }
        labels = {
            "u": GraphLabel(vertex="u", entries=(("r", 0.0, TreeLabel(enter=1)),)),
            "v": GraphLabel(vertex="v", entries=(None,)),
        }
        return GraphRoutingScheme(k=1, tables=tables, labels=labels, tree_schemes={})

    def test_max_table_words(self):
        scheme = self._scheme()
        assert scheme.max_table_words() == 1 + 2 * (1 + 4)

    def test_mean_table_words(self):
        scheme = self._scheme()
        assert scheme.mean_table_words() == pytest.approx((6 + 11) / 2)

    def test_max_label_words(self):
        scheme = self._scheme()
        # u: 1 + (1 tag + 2 + 1) = 5 ; v: 1 + 1 tag = 2
        assert scheme.max_label_words() == 5

    def test_graph_table_has_tree(self):
        scheme = self._scheme()
        assert scheme.tables["v"].has_tree("s")
        assert not scheme.tables["u"].has_tree("s")
