"""Tests for the unified telemetry layer (spans, counters, RunRecords,
paper-bound checking)."""

import json

from repro.analysis import run_table2, table2_verdicts
from repro.congest import Network
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.telemetry import (
    RunRecord,
    TelemetryCollector,
    check_graph_columns,
    check_table2_relations,
    check_tree_columns,
    collect,
    failures,
    make_run_record,
    peak_rss_kb,
    record_run,
    render_profile,
    verdict_from_dict,
)
from repro.telemetry import events
from repro.treerouting import build_distributed_tree_scheme


def _build_tree(n=80, seed=11):
    graph = random_connected_graph(n, seed=seed)
    tree = spanning_tree_of(graph, style="dfs", seed=seed)
    net = Network(graph)
    return net, build_distributed_tree_scheme(net, tree, seed=seed)


class TestEventBus:
    def test_disabled_by_default(self):
        assert not events.enabled()
        # No-ops, no errors, no state.
        events.emit("x", 3)
        events.gauge("y", 7)
        with events.span("z") as s:
            assert s is None

    def test_collect_attaches_and_detaches(self):
        with collect() as tele:
            assert events.enabled()
            events.emit("c", 2)
        assert not events.enabled()
        assert tele.counter("c") == 2

    def test_span_nesting_and_counter_attribution(self):
        with collect() as tele:
            with events.span("outer"):
                events.emit("n", 1)
                with events.span("inner"):
                    events.emit("n", 10)
        outer = tele.roots[0]
        assert outer.name == "outer"
        assert outer.counters["n"] == 1
        assert outer.children[0].name == "inner"
        assert outer.children[0].counters["n"] == 10
        assert outer.total("n") == 11
        assert tele.counter("n") == 11

    def test_gauge_keeps_maximum(self):
        with collect() as tele:
            events.gauge("m", 5)
            events.gauge("m", 3)
            events.gauge("m", 9)
        assert tele.gauges["m"] == 9

    def test_find_by_name(self):
        with collect() as tele:
            with events.span("a"):
                with events.span("b"):
                    pass
        assert tele.find("b").name == "b"
        assert tele.find("nope") is None


class TestNetworkHooks:
    def test_round_counters_match_metrics(self):
        net = Network(random_connected_graph(60, seed=3))
        with collect() as tele:
            from repro.congest import build_bfs_tree

            build_bfs_tree(net)
        assert tele.counter("congest.rounds") == net.metrics.rounds
        assert tele.counter("congest.messages") == net.metrics.messages

    def test_charged_rounds_counter(self):
        net = Network(random_connected_graph(30, seed=4))
        with collect() as tele:
            net.charge_rounds(17, messages=5, words=9)
        assert tele.counter("congest.charged_rounds") == 17
        assert tele.counter("congest.messages") == 5

    def test_tree_build_emits_stage_spans(self):
        with collect() as tele:
            net, build = _build_tree()
        names = {r.name for r in tele.roots}
        for stage in ("tree/partition", "tree/stage0", "tree/stage1",
                      "tree/stage2", "tree/stage3", "tree/assemble"):
            assert stage in names, stage
        # Span round totals account for every simulated round.
        assert tele.counter("congest.rounds") == net.metrics.rounds
        assert tele.gauges["memory.high_water_words"] == build.max_memory_words

    def test_zero_overhead_when_disabled(self):
        """Hooks must not change measurements for untraced runs."""
        net_plain, build_plain = _build_tree(n=60, seed=9)
        with collect():
            net_traced, build_traced = _build_tree(n=60, seed=9)
        assert build_plain.rounds == build_traced.rounds
        assert build_plain.messages == build_traced.messages
        assert build_plain.max_memory_words == build_traced.max_memory_words


class TestBoundChecker:
    def test_tree_columns_pass(self):
        verdicts = check_tree_columns(
            1000, rounds=2000, table_words=4, label_words=7,
            memory_words=30, hop_diameter_bound=14,
        )
        assert len(verdicts) == 4
        assert not failures(verdicts)
        assert {v.column for v in verdicts} == {
            "rounds", "table_words", "label_words", "memory_words"
        }

    def test_tree_columns_violation_detected(self):
        verdicts = check_tree_columns(1000, table_words=999)
        [bad] = failures(verdicts)
        assert bad.column == "table_words"
        assert bad.measured == 999

    def test_graph_columns_stretch_violation(self):
        verdicts = check_graph_columns(
            300, 3, epsilon=0.05, stretch_max=100.0
        )
        assert [v.column for v in failures(verdicts)] == ["stretch_max"]

    def test_relations_catch_memory_regression(self):
        ours = {"table_words": 4, "label_words": 7, "memory_words": 500}
        base = {"table_words": 11, "label_words": 10, "memory_words": 60}
        cent = {"table_words": 4, "label_words": 7}
        verdicts = check_table2_relations(ours, base, cent)
        assert "table2/relations/memory_separation" in {
            v.name for v in failures(verdicts)
        }

    def test_verdict_round_trip(self):
        v = check_tree_columns(500, table_words=4)[0]
        again = verdict_from_dict(v.to_dict())
        assert again.name == v.name
        assert again.passed == v.passed
        # limit is rounded for serialization, stays within tolerance.
        assert abs(again.limit - v.limit) < 1e-3


class TestRunRecord:
    def test_table2_record_has_verdicts_for_every_column(self):
        result, record = record_run(run_table2, 150, seed=2)
        measured_cols = {"rounds", "table_words", "label_words",
                         "memory_words"}
        assert measured_cols <= {v.column for v in record.verdicts}
        assert record.passed
        assert record.workload["n"] == 150
        assert record.counters["congest.rounds"] > 0
        assert record.wall_s > 0

    def test_json_round_trip(self):
        _, record = record_run(run_table2, 120, seed=5)
        blob = record.to_json()
        again = RunRecord.from_json(blob)
        assert again.kind == "table2"
        assert again.columns == json.loads(blob)["columns"]
        assert len(again.verdicts) == len(record.verdicts)
        assert again.passed == record.passed
        assert again.counters == record.counters

    def test_violated_synthetic_record_fails(self):
        record = make_run_record(
            "synthetic",
            workload={"n": 1000},
            columns=[{"scheme": "this-paper", "memory_words": 10_000}],
            verdicts=check_tree_columns(1000, memory_words=10_000),
        )
        assert not record.passed
        assert record.failed_verdicts()[0].column == "memory_words"
        # The failure survives serialization.
        assert not RunRecord.from_json(record.to_json()).passed

    def test_append_jsonl(self, tmp_path):
        record = make_run_record("x", workload={}, columns=[])
        path = tmp_path / "sub" / "records.jsonl"
        record.append_jsonl(path)
        record.append_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert RunRecord.from_json(lines[0]).kind == "x"

    def test_peak_rss_positive(self):
        assert peak_rss_kb() > 0

    def test_table2_verdicts_standalone(self):
        result, _ = record_run(run_table2, 120, seed=5)
        verdicts = table2_verdicts(result)
        assert verdicts and not failures(verdicts)


class TestProfileRenderer:
    def test_profile_renders_span_tree(self):
        with collect() as tele:
            _build_tree(n=60, seed=7)
        art = tele.profile()
        assert "tree/stage1" in art
        assert "wall_s" in art and "rounds" in art
        assert "totals:" in art

    def test_profile_merges_repeated_siblings(self):
        with collect() as tele:
            for _ in range(3):
                with events.span("repeat"):
                    events.emit("n", 1)
        art = tele.profile()
        assert "repeat x3" in art
        assert art.count("repeat") == 1

    def test_render_profile_from_serialized_record(self):
        _, record = record_run(run_table2, 120, seed=5)
        art = render_profile(record.spans, record.counters, record.gauges)
        assert "tree/stage3" in art

    def test_empty_profile(self):
        assert "no spans" in TelemetryCollector().profile()
