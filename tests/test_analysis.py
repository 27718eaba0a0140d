"""Tests for the experiment harness (tables and figure sweeps)."""

import pytest

from repro.analysis import (
    fig_multitree,
    fig_sizes_vs_k,
    fig_stretch,
    fig_tree_memory,
    fig_tree_rounds,
    format_records,
    format_table,
    run_table1,
    run_table2,
)


class TestFormatting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].index("|") == lines[2].index("|")

    def test_format_records_empty(self):
        assert "(no data)" in format_records([], title="t")

    def test_format_records_roundtrip(self):
        out = format_records([{"x": 1, "y": 2.5}], title="T")
        assert "T" in out and "2.500" in out


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(300, seed=3)

    def test_three_rows(self, result):
        assert {r["scheme"] for r in result.rows} == {
            "this-paper", "EN16b-baseline", "TZ01b-centralized"
        }

    def test_paper_shape_holds(self, result):
        ours = result.row("this-paper")
        base = result.row("EN16b-baseline")
        cent = result.row("TZ01b-centralized")
        assert ours["memory_words"] < base["memory_words"]
        assert ours["table_words"] < base["table_words"]
        assert ours["table_words"] == cent["table_words"]
        assert ours["label_words"] == cent["label_words"]

    def test_render_mentions_all_schemes(self, result):
        text = result.render()
        for scheme in ("this-paper", "EN16b-baseline", "TZ01b-centralized"):
            assert scheme in text


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(120, 2, seed=3, pairs=60)

    def test_rows_present(self, result):
        assert {r["scheme"] for r in result.rows} == {
            "this-paper",
            "TZ01b-centralized",
            "landmark-baseline",
            "tree-cover-baseline",
        }

    def test_tree_cover_row_constant_stretch(self, result):
        cover = result.row("tree-cover-baseline")
        assert cover["stretch_max"] <= 6.0 + 1e-9

    def test_stretch_within_bound(self, result):
        ours = result.row("this-paper")
        assert ours["stretch_max"] <= 4 * 2 - 3 + 1e-9

    @pytest.mark.parametrize("k", range(2, 7))
    def test_paper_bound_prints_the_implemented_stretch(self, k):
        """Both rows route by the first-level rule, whose bound (and the
        stretch verdict's) is 4k-3; the 4k-5 refinement is not built."""
        result = run_table1(40, k, seed=3, pairs=5)
        stretch = {row["scheme"]: row["paper_bound"].split(" / ")[3]
                   for row in result.rows}
        assert stretch["this-paper"] == f"{4 * k - 3}+o(1)"
        assert stretch["TZ01b-centralized"] == f"{4 * k - 3}"


class TestFigureSweeps:
    def test_tree_rounds_sweep(self):
        records = fig_tree_rounds(sizes=(100, 200), seed=2)
        assert [r["n"] for r in records] == [100, 200]
        assert records[1]["rounds"] > 0

    def test_tree_memory_sweep_shows_gap(self):
        records = fig_tree_memory(sizes=(150, 400), seed=2)
        for r in records:
            assert r["memory_en16b"] > r["memory_this_paper"]

    def test_stretch_sweep_within_bounds(self):
        records = fig_stretch(n=100, ks=(2,), seed=2, pairs=40)
        for r in records:
            assert r["stretch_max"] <= r["bound_4k_minus_3"] + 1e-9

    def test_sizes_vs_k_tables_shrink(self):
        records = fig_sizes_vs_k(n=120, ks=(2, 4), seed=2)
        assert records[1]["table_mean"] <= records[0]["table_mean"] * 1.5

    def test_multitree_parallel_wins(self):
        records = fig_multitree(n=150, tree_counts=(1, 4), seed=2)
        four = records[1]
        assert four["rounds_parallel"] < four["rounds_sequential_sum"]
