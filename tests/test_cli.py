"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import FIGURE_ALIASES, FIGURES, build_parser, main


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert (args.n, args.k) == (200, 3)

    def test_table2_overrides(self):
        args = build_parser().parse_args(["table2", "--n", "500", "--seed", "3"])
        assert (args.n, args.seed) == (500, 3)

    def test_fig_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "bogus"])

    def test_all_figures_registered(self):
        assert len(FIGURES) == 9

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_aliases_accepted(self):
        args = build_parser().parse_args(["fig", "fig1_tree_rounds"])
        assert args.name == "fig1_tree_rounds"

    def test_aliases_cover_every_figure(self):
        assert sorted(FIGURE_ALIASES.values()) == sorted(FIGURES)

    def test_trace_flight_flags(self):
        args = build_parser().parse_args(
            ["trace", "stretch", "--flight", "--stride", "4"])
        assert args.flight and args.stride == 4

    def test_serve_trace_flags(self):
        args = build_parser().parse_args(
            ["serve", "--trace-out", "t.jsonl", "--trace-chrome", "t.json",
             "--trace-rate", "0.05", "--trace-tail", "32"])
        assert args.trace_out == "t.jsonl"
        assert args.trace_chrome == "t.json"
        assert args.trace_rate == 0.05
        assert args.trace_tail == 32

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.command == "explain"
        assert args.traces == "traces.jsonl"
        assert args.trace_id is None and args.worst is None

    def test_explain_flags(self):
        args = build_parser().parse_args(
            ["explain", "--traces", "x.jsonl", "--worst", "3", "--json"])
        assert args.traces == "x.jsonl"
        assert args.worst == 3 and args.json


class TestExecution:
    def test_table2_runs(self, capsys):
        assert main(["table2", "--n", "150"]) == 0
        out = capsys.readouterr().out
        assert "this-paper" in out and "EN16b-baseline" in out

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        assert "exact" in capsys.readouterr().out


class TestTelemetrySurfaces:
    def test_table2_json_emits_run_record(self, capsys):
        assert main(["table2", "--n", "150", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "table2"
        assert record["workload"]["n"] == 150
        assert record["passed"] is True
        columns = {v["column"] for v in record["verdicts"]}
        assert {"rounds", "table_words", "label_words",
                "memory_words"} <= columns
        # Measured columns round-trip through JSON.
        schemes = [row["scheme"] for row in record["columns"]]
        assert "this-paper" in schemes

    def test_table2_strict_passes_on_good_run(self, capsys):
        assert main(["table2", "--n", "150", "--strict", "--quiet"]) == 0

    def test_quiet_suppresses_stdout(self, capsys):
        assert main(["demo", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "nested" / "t2.json"
        code = main(["table2", "--n", "150", "--json", "--quiet",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        record = json.loads(target.read_text())
        assert record["kind"] == "table2"

    def test_trace_jsonl(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        code = main(["trace", "tree-rounds", "--jsonl", "--quiet",
                     "--out", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["kind"] == "fig/tree-rounds"
        assert manifest["counters"]["congest.rounds"] > 0
        # One JSONL line per sweep row after the manifest.
        assert len(lines) == 1 + len(manifest["columns"])
        assert json.loads(lines[1])["n"] == manifest["columns"][0]["n"]

    def test_demo_profile_prints_span_tree(self, capsys):
        assert main(["demo", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "tree/stage1" in out and "wall_s" in out

    def test_table2_profile(self, capsys):
        assert main(["table2", "--n", "150", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "this-paper" in out  # rendered table still present
        assert "congest/bfs" in out  # plus the span tree

    def test_fig_accepts_bench_alias(self, tmp_path):
        target = tmp_path / "fig.json"
        code = main(["fig", "fig9_tree_styles", "--json", "--quiet",
                     "--out", str(target)])
        assert code == 0
        rows = json.loads(target.read_text())
        assert rows and "style" in rows[0]

    def test_serve_trace_out_then_explain(self, tmp_path, capsys):
        """Acceptance: serve --trace-out writes JSONL that repro explain
        reads back, with attribution exact to the optimal distances."""
        traces = tmp_path / "traces.jsonl"
        rc = main(["serve", "--n", "60", "--k", "2", "--queries", "400",
                   "--workload", "zipf", "--quiet",
                   "--trace-out", str(traces), "--trace-rate", "0.1"])
        assert rc == 0
        assert traces.exists() and traces.read_text().strip()

        report = tmp_path / "explain.json"
        rc = main(["explain", "--traces", str(traces), "--worst", "2",
                   "--json", "--quiet", "--out", str(report)])
        assert rc == 0
        record = json.loads(report.read_text())
        assert record["kind"] == "explain"
        assert record["passed"] is True
        verdict = record["verdicts"][0]
        assert verdict["name"] == "explain/attribution-exact"
        assert verdict["measured"] == 0.0
        assert record["traces"]

    def test_explain_unknown_trace_id_exits_two(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        rc = main(["serve", "--n", "60", "--k", "2", "--queries", "200",
                   "--workload", "uniform", "--quiet",
                   "--trace-out", str(traces)])
        assert rc == 0
        rc = main(["explain", "--traces", str(traces),
                   "--trace-id", "nope-000000", "--quiet"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_explain_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["explain", "--traces", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("argv,says", [
        (["trace", "tree-styles", "--flight", "--stride", "0"], "--stride: must be > 0"),
        (["monitor", "--target-qps", "0"], "--target-qps: must be > 0"),
        (["serve", "--workers", "0"], "--workers: must be > 0"),
        (["serve", "--n", "1"], "repro serve: need n >= 2"),
        (["lint"], "argument command: invalid choice: 'lint'"),
    ], ids=["stride-0", "target-qps-0", "workers-0", "n-1", "lint-is-gone"])
    def test_bad_input_is_one_line_and_exit_two(self, argv, says, capsys):
        """Not a traceback: a flag argparse can judge is a usage error, and
        an ``InputError`` from the library is caught once, in ``main``."""
        try:
            rc = main(argv)
        except SystemExit as usage:
            rc = usage.code
        err = capsys.readouterr().err
        assert rc == 2
        assert says in err.splitlines()[-1] and "Traceback" not in err

    def test_zero_stays_legal_where_it_means_off_or_empty(self, capsys):
        assert main(["serve", "--n", "40", "--k", "2", "--queries", "0", "--cache", "0",
                     "--trace-tail", "0", "--quiet"]) == 0

    def test_report_json(self, capsys):
        assert main(["report", "--fast", "--json", "--strict"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "report"
        assert doc["passed"] is True
        assert doc["table2"]["kind"] == "table2"
        assert doc["table1"]["kind"] == "table1"
        assert all(v["passed"] for v in doc["table2"]["verdicts"])
        assert set(doc["figures"]) == {
            "tree_rounds", "tree_memory", "stretch", "tree_styles"
        }
        assert doc["figures"]["tree_rounds"][0]["n"] == 150


@pytest.fixture(scope="module")
def traces_file(tmp_path_factory):
    """A trace file for ``explain``, written by ``serve --trace-out``."""
    path = tmp_path_factory.mktemp("traces") / "traces.jsonl"
    assert main(["serve", "--n", "60", "--k", "2", "--queries", "300",
                 "--workload", "zipf", "--quiet", "--trace-out", str(path),
                 "--trace-rate", "0.1"]) == 0
    return str(path)


_SERVE = ["serve", "--n", "60", "--k", "2", "--queries", "200"]

#: Every recordable command: (id, argv, RunRecord kind, --strict exit code).
RECORDABLE = [
    ("table1", ["table1", "--n", "80", "--k", "2", "--pairs", "20"],
     "table1", 0),
    ("table2", ["table2", "--n", "120"], "table2", 0),
    ("serve", _SERVE, "serve", 0),
    ("serve-slo-miss", _SERVE + ["--slo-target", "1.01"], "serve", 1),
    ("serve-workers-2", _SERVE + ["--workers", "2"], "serve", 0),
    ("monitor", ["monitor", "--n", "60", "--k", "2", "--queries", "200"],
     "monitor", 0),
    ("explain", ["explain", "--worst", "2", "--traces", "<traces>"],
     "explain", 0),
    ("trace", ["trace", "tree-styles"], "fig/tree-styles", 0),
]


class TestCommandTable:
    def test_every_table_row_is_a_parsable_command(self, capsys):
        from repro.__main__ import COMMANDS

        assert {row[1][0] for row in RECORDABLE} <= set(COMMANDS)
        for name in COMMANDS:
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args([name, "--help"])
            assert exit_.value.code == 0
            assert f"repro {name}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,kind,strict_rc",
        [pytest.param(*row[1:], id=row[0]) for row in RECORDABLE])
    def test_json_out_and_strict(self, argv, kind, strict_rc, tmp_path,
                                 capsys, traces_file):
        from repro.telemetry import RunRecord

        argv = [{"<traces>": traces_file}.get(a, a) for a in argv]
        flags = [] if argv[0] == "trace" else ["--json", "--strict"]
        out = tmp_path / "rec.json"
        rc = main(argv + flags + ["--out", str(out)])
        captured = capsys.readouterr()
        # stdout is one JSON document, --out holds the same text ...
        assert out.read_text() == captured.out
        record = RunRecord.from_json(captured.out)
        assert record.kind == kind
        assert record.schema_version == 1
        # ... and --strict fails exactly when a verdict of the record did.
        assert rc == strict_rc == (0 if record.passed else 1)
        assert bool(captured.err) == (rc == 1)

    @pytest.mark.parametrize("argv", [
        ["table2", "--n", "120", "--json"],
        ["table1", "--n", "80", "--k", "2", "--pairs", "20", "--json"],
        _SERVE + ["--json"],
        ["monitor", "--n", "60", "--k", "2", "--queries", "200", "--json"],
        ["fig", "tree-styles", "--json"],
        ["trace", "tree-styles"],
    ], ids=lambda argv: argv[0])
    def test_json_with_profile_stays_one_document(self, argv, tmp_path,
                                                  capsys):
        """``--json --profile`` used to append the ASCII span tree after
        the JSON document; it belongs on stderr."""
        out = tmp_path / "doc.json"
        assert main(argv + ["--profile", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        json.loads(out.read_text())
        assert "wall_s" in captured.err and "totals:" in captured.err

    def test_trace_chrome_notice_keeps_stdout_json(self, tmp_path, capsys):
        chrome = tmp_path / "c.json"
        assert main(["trace", "tree-styles", "--jsonl",
                     "--chrome", str(chrome)]) == 0
        captured = capsys.readouterr()
        for line in captured.out.strip().splitlines():
            json.loads(line)
        assert str(chrome) in captured.err

    def test_serve_trace_chrome_has_span_track_without_other_flags(
            self, tmp_path, capsys):
        """Always-recorded: the Chrome trace holds the run's spans even
        when none of --json/--strict/--profile asked for a record."""
        chrome = tmp_path / "q.json"
        assert main(_SERVE + ["--quiet", "--trace-chrome", str(chrome)]) == 0
        names = {e.get("name")
                 for e in json.loads(chrome.read_text())["traceEvents"]}
        assert "serve/run" in names and "serve/queries" in names

    def test_profile_honoured_by_monitor(self, capsys):
        assert main(["monitor", "--n", "60", "--k", "2", "--queries", "200",
                     "--no-live", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out and "serve/compile" in out

    def test_profile_honoured_by_report(self, capsys):
        assert main(["report", "--fast", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "tree/stage1" in out and "build/hopset" in out

    @pytest.mark.parametrize("command", ["explain"])
    def test_profile_not_declared_where_nothing_emits_spans(self, command,
                                                            capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--profile"])
        assert "--profile" in capsys.readouterr().err

    def test_shared_flags_declared_once(self):
        import inspect

        import repro.__main__ as cli

        source = inspect.getsource(cli)
        for flag in ("--json", "--strict", "--profile", "--workload",
                     "--queries", "--builder", "--mode", "--cache",
                     "--zipf-alpha", "--metrics-out"):
            assert source.count(f'"{flag}"') == 1, flag
