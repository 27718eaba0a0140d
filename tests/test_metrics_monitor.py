"""Tests for ``run_monitor`` and the ``repro monitor`` / ``repro serve
--metrics-out`` command-line surface (S18).

The monitor's virtual clock makes burn-rate alerting deterministic, so
these tests can assert exact SLO outcomes: a healthy scheme leaves the
budget untouched, and an artificially degraded bound trips the fast
burn-rate arm at a reproducible virtual timestamp.
"""

import io
import json

import pytest

from repro.__main__ import build_parser, main
from repro.graphs import random_connected_graph
from repro.metrics import (
    ServeMetrics,
    parse_prometheus,
    run_monitor,
)
from repro.telemetry.runrecord import RunRecord, record_run
from repro.tz import build_centralized_scheme

SEED = 89


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(70, seed=SEED)
    scheme = build_centralized_scheme(graph, 2, seed=SEED)
    return graph, scheme


class TestRunMonitor:
    def test_healthy_replay(self, built):
        graph, scheme = built
        report = run_monitor(scheme, graph, workload="zipf",
                             queries=400, seed=3)
        assert report.queries == 400
        assert report.failures == 0
        assert report.healthy
        assert report.budget_remaining == 1.0
        assert report.active_alerts == []
        assert report.hops_p50 >= 0 and report.hops_p99 >= report.hops_p50
        assert report.stretch_p99 is not None
        assert report.stretch_p99 <= report.slo_bound

    def test_run_record_carries_metrics_and_verdict(self, built):
        graph, scheme = built
        report, record = record_run(run_monitor, scheme, graph,
                                    queries=200, seed=1)
        assert record.kind == "monitor"
        assert record.metrics, "RunRecord.metrics must hold the snapshot"
        assert record.metrics["slo"]["alerts"] == []
        q = record.metrics["repro_serve_queries_total"]["series"][0]
        assert q["value"] == 200.0
        verdict = record.verdicts[0]
        assert verdict.name == "monitor/uniform/slo-budget"
        assert verdict.passed
        # The snapshot must survive the JSON round trip.
        back = RunRecord.from_dict(json.loads(record.to_json()))
        assert back.metrics["slo"]["objective"] == 0.99

    def test_degraded_bound_fires_alerts(self, built):
        """slo_bound below 1.0 marks every query bad: alerts must fire."""
        graph, scheme = built
        report, record = record_run(run_monitor, scheme, graph,
                                    queries=600, seed=2,
                                    slo_bound=0.5, target_qps=100.0)
        assert not report.healthy
        assert report.active_alerts
        assert report.alert_transitions >= 1
        assert report.budget_remaining == 0.0
        assert not record.verdicts[0].passed

    def test_firing_alerts_carry_trace_ids(self, built):
        """S19: a firing alert's structured event names the tail-traced
        queries that burned the budget, linking to ``repro explain``."""
        graph, scheme = built
        report, record = record_run(run_monitor, scheme, graph,
                                    queries=600, seed=2,
                                    slo_bound=0.5, target_qps=100.0)
        alerts = record.metrics["slo"]["alerts"]
        firing = [a for a in alerts if a["state"] == "firing"]
        assert firing
        for alert in firing:
            ids = alert.get("trace_ids")
            assert ids, "firing alerts must reference tail trace ids"
            assert len(ids) <= 8
            assert all(i.startswith("uniform-2-") for i in ids)
        resolved = [a for a in alerts if a["state"] == "resolved"]
        assert all("trace_ids" not in a for a in resolved)

    def test_status_stream_refreshes(self, built):
        graph, scheme = built
        stream = io.StringIO()
        run_monitor(scheme, graph, queries=300, seed=4,
                    status_stream=stream, refresh_every=100)
        text = stream.getvalue()
        assert text.count("\r") >= 3
        assert "budget=" in text and "alerts=" in text
        assert text.endswith("\n")

    def test_virtual_clock_spans_queries(self, built):
        graph, scheme = built
        report = run_monitor(scheme, graph, queries=500, seed=5,
                             target_qps=250.0)
        # 500 queries at 250 virtual qps = 2 virtual seconds; the QPS
        # meter saw the whole stream inside its 10s window.
        meter = report.snapshot["repro_serve_qps"]["series"][0]
        assert meter["total"] == 500.0

    def test_bad_target_qps_rejected(self, built):
        graph, scheme = built
        with pytest.raises(ValueError):
            run_monitor(scheme, graph, queries=10, target_qps=0.0)

    def test_worst_stretch_exemplars_recorded(self, built):
        graph, scheme = built
        report = run_monitor(scheme, graph, workload="zipf",
                             queries=400, seed=6)
        series = report.snapshot["repro_serve_stretch"]["series"][0]
        exemplars = series.get("exemplars", [])
        assert exemplars, "worst-stretch exemplars must be captured"
        # Worst-first ordering, and each entry carries the query context.
        values = [e["value"] for e in exemplars]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(report.snapshot[
            "repro_serve_stretch"]["series"][0]["max"])
        for key in ("source", "target", "hops", "path_prefix", "cached",
                    "trace_id"):
            assert key in exemplars[0], key
        assert exemplars[0]["trace_id"].startswith("zipf-6-")

    def test_report_render(self, built):
        graph, scheme = built
        report = run_monitor(scheme, graph, queries=150, seed=7)
        text = report.render()
        assert "SLO budget" in text and "HEALTHY" in text


class TestMonitorCli:
    def test_parser_accepts_monitor(self):
        args = build_parser().parse_args(
            ["monitor", "--workload", "zipf", "--queries", "300",
             "--n", "60", "--target-qps", "500", "--json"])
        assert args.command == "monitor"
        assert args.target_qps == 500.0

    def test_json_run_record(self, capsys):
        rc = main(["monitor", "--n", "50", "--k", "2", "--queries", "200",
                   "--workload", "zipf", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "monitor"
        assert doc["columns"][0]["healthy"] is True
        assert doc["metrics"]["slo"]["alerts"] == []

    def test_text_output(self, capsys):
        rc = main(["monitor", "--n", "50", "--k", "2", "--queries", "150",
                   "--no-live"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO budget" in out

    def test_strict_healthy_exits_zero(self, capsys):
        rc = main(["monitor", "--n", "50", "--k", "2", "--queries", "150",
                   "--strict", "--quiet"])
        assert rc == 0

    def test_metrics_out_writes_parseable_prometheus(self, tmp_path,
                                                     capsys):
        out = tmp_path / "monitor.prom"
        rc = main(["monitor", "--n", "50", "--k", "2", "--queries", "200",
                   "--quiet", "--metrics-out", str(out)])
        assert rc == 0
        families = parse_prometheus(out.read_text())
        assert families["repro_serve_queries_total"]["samples"][0][2] \
            == 200.0
        assert "repro_serve_latency_us" in families


class TestServeMetricsOutCli:
    def test_serve_metrics_out(self, tmp_path, capsys):
        """Acceptance: repro serve --metrics-out writes valid Prometheus
        text that the strict parser accepts."""
        out = tmp_path / "serve.prom"
        rc = main(["serve", "--n", "50", "--k", "2", "--queries", "200",
                   "--workload", "zipf", "--quiet",
                   "--metrics-out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# HELP" in text and "# TYPE" in text
        families = parse_prometheus(text)
        for name in ("repro_serve_queries_total", "repro_serve_hops",
                     "repro_serve_latency_us", "repro_serve_stretch"):
            assert name in families, name

    def test_serve_metrics_report_section(self, built):
        """run_serving with a bundle attaches the snapshot to the report."""
        from repro.serve import run_serving

        graph, scheme = built
        metrics = ServeMetrics()
        report, _ = run_serving(scheme, graph, queries=150, seed=2,
                                metrics=metrics)
        assert report.metrics, "report.metrics must hold the snapshot"
        assert report.metrics["slo"]["total"] == 150.0
