"""Tests for the static HTML dashboard (repro.telemetry.dashboard)."""

import json

from repro.telemetry.dashboard import (
    build_dashboard,
    render_dashboard,
    sparkline_svg,
)
from repro.telemetry.trajectory import make_entry

ROWS = [{"scheme": "this-paper", "rounds": 100, "words": 40, "wall_s": 1.0}]


def _bench_file(root, name, entries):
    path = root / f"BENCH_{name}.json"
    path.write_text(json.dumps(
        {"schema": 2, "name": name, "entries": entries}))
    return path


class TestSparkline:
    def test_svg_with_title_tooltips(self):
        svg = sparkline_svg([1, 2, 3], labels=["a", "b", "c"])
        assert svg.startswith("<svg")
        assert "<title>" in svg

    def test_flat_and_single_point_series_render(self):
        assert "<svg" in sparkline_svg([5, 5, 5])
        assert "<svg" in sparkline_svg([7])

    def test_empty_series_renders_placeholder(self):
        assert "svg" not in sparkline_svg([])


class TestRender:
    def test_renders_trajectory_with_sparklines(self, tmp_path):
        entries = [make_entry("t", [dict(r, rounds=100 + i) for r in ROWS],
                              {"workload": {"n": 10}}, sha=f"s{i}",
                              package_version="1")
                   for i in range(3)]
        path = _bench_file(tmp_path, "t", entries)
        html = render_dashboard([path])
        assert "<!doctype html>" in html
        assert "<svg" in html
        assert "rounds" in html
        assert "<script" not in html  # self-contained, no JS

    def test_regression_verdict_shown(self, tmp_path):
        base = make_entry("t", ROWS, {"workload": {"n": 10}}, sha="a",
                          package_version="1")
        worse = make_entry("t", [dict(ROWS[0], rounds=150)],
                           {"workload": {"n": 10}}, sha="b",
                           package_version="1")
        path = _bench_file(tmp_path, "t", [base, worse])
        html = render_dashboard([path])
        assert "regressed" in html or "fail" in html.lower()

    def test_legacy_single_object_file_renders(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(
            {"name": "old", "created_unix": 1.0, "package_version": "0.1",
             "meta": {}, "data": ROWS}))
        html = render_dashboard([path])
        assert "old" in html

    def test_no_benches_still_renders(self):
        html = render_dashboard([])
        assert "<!doctype html>" in html


class TestBuild:
    def test_build_globs_repo_root(self, tmp_path):
        entries = [make_entry("t", ROWS, {}, sha=s, package_version="1")
                   for s in ("a", "b")]
        _bench_file(tmp_path, "t", entries)
        out = build_dashboard(tmp_path, tmp_path / "dash.html")
        html = out.read_text()
        assert "rounds" in html and "<svg" in html

    def test_cli_dashboard_renders_all_bench_files(self, tmp_path, capsys):
        from repro.__main__ import main

        for name in ("alpha", "beta"):
            _bench_file(tmp_path, name,
                        [make_entry(name, ROWS, {}, sha="a",
                                    package_version="1")])
        out = tmp_path / "dash.html"
        code = main(["dashboard", "--out", str(out), "--root",
                     str(tmp_path), "--quiet"])
        assert code == 0
        html = out.read_text()
        assert "alpha" in html and "beta" in html

    def test_cli_dashboard_includes_records(self, tmp_path):
        from repro.__main__ import main

        rec = tmp_path / "rec.json"
        code = main(["trace", "tree-rounds", "--quiet", "--out", str(rec)])
        assert code == 0
        out = tmp_path / "dash.html"
        code = main(["dashboard", "--out", str(out), "--root",
                     str(tmp_path), "--record", str(rec), "--quiet"])
        assert code == 0
        assert "fig/tree-rounds" in out.read_text()


class TestMetricsPanel:
    def test_monitor_record_renders_live_metrics(self, tmp_path):
        from repro.graphs import random_connected_graph
        from repro.metrics import run_monitor
        from repro.tz import build_centralized_scheme

        graph = random_connected_graph(50, seed=5)
        scheme = build_centralized_scheme(graph, 2, seed=5)
        record = run_monitor(scheme, graph, queries=150,
                             seed=5).to_run_record()
        rec = tmp_path / "monitor.json"
        rec.write_text(record.to_json())
        html = render_dashboard([], record_paths=[rec])
        assert "Live metrics" in html
        assert "repro_serve_queries_total" in html
        assert "repro_serve_latency_us" in html
        assert "SLO" in html and "budget remaining" in html

    def test_degraded_monitor_record_shows_alerts(self, tmp_path):
        from repro.graphs import random_connected_graph
        from repro.metrics import run_monitor
        from repro.tz import build_centralized_scheme

        graph = random_connected_graph(50, seed=6)
        scheme = build_centralized_scheme(graph, 2, seed=6)
        record = run_monitor(scheme, graph, queries=400, seed=6,
                             slo_bound=0.5,
                             target_qps=100.0).to_run_record()
        rec = tmp_path / "degraded.json"
        rec.write_text(record.to_json())
        html = render_dashboard([], record_paths=[rec])
        assert "firing" in html
