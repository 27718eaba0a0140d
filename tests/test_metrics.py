"""Tests for ``repro.metrics`` — the live serving observability layer (S18).

Covers the quantile sketch's error contract, the registry/instrument
semantics, Prometheus exposition (render *and* the strict parser), the
multi-window burn-rate SLO monitor, and the ``ServeMetrics`` bundle the
engine/harness hot paths feed.
"""

import math
import random

import pytest

from repro.metrics import (
    BurnRule,
    DEFAULT_RULES,
    ExpositionError,
    MetricsRegistry,
    QuantileSketch,
    ServeMetrics,
    SloMonitor,
    WindowedRatio,
    intern_labels,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
)
from repro.metrics.slo import SloAlert
from repro.serve import RouteBatch, ServeResult


def exact_quantile(values, q):
    """Nearest-rank quantile on the raw stream (reference)."""
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# QuantileSketch
# ---------------------------------------------------------------------------

class TestQuantileSketch:
    def test_empty_sketch(self):
        sk = QuantileSketch()
        assert len(sk) == 0
        assert sk.quantile(0.5) == 0.0
        assert sk.mean == 0.0

    def test_relative_error_bound_random_stream(self):
        rng = random.Random(42)
        values = [rng.expovariate(1 / 50.0) + 0.01 for _ in range(5000)]
        sk = QuantileSketch(relative_accuracy=0.01)
        sk.add_many(values)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            exact = exact_quantile(values, q)
            assert abs(sk.quantile(q) - exact) <= 0.01 * exact + 1e-12, q

    def test_integer_hops_exact_after_round(self):
        """alpha=0.005 keeps hop percentiles exact for hops < 100."""
        rng = random.Random(7)
        hops = [rng.randint(0, 40) for _ in range(2000)]
        sk = QuantileSketch(relative_accuracy=0.005)
        sk.add_many(hops)
        for q in (0.5, 0.9, 0.99):
            assert round(sk.quantile(q)) == exact_quantile(hops, q)

    def test_zero_values_and_min_max(self):
        sk = QuantileSketch()
        sk.add(0.0, 3)
        sk.add(10.0)
        assert sk.count == 4
        assert sk.quantile(0.0) == 0.0
        assert sk.quantile(0.5) == 0.0
        assert sk.min_value == 0.0
        assert sk.max_value == 10.0

    def test_negative_values_clamp_to_zero_bucket(self):
        sk = QuantileSketch()
        sk.add(-1.0)
        sk.add(5.0)
        assert sk.zero_count == 1
        assert sk.quantile(0.5) in (0.0, -1.0)  # zero-bucket rank
        assert sk.quantile(1.0) == 5.0

    def test_merge_equals_whole_stream(self):
        rng = random.Random(3)
        values = [rng.uniform(0.1, 1000.0) for _ in range(1000)]
        whole = QuantileSketch()
        whole.add_many(values)
        left = QuantileSketch()
        right = QuantileSketch()
        left.add_many(values[:400])
        right.add_many(values[400:])
        assert left.merge(right) == whole

    def test_merge_alpha_mismatch_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_dict_roundtrip(self):
        sk = QuantileSketch(relative_accuracy=0.02)
        sk.add_many([1.0, 2.5, 0.0, 400.0])
        back = QuantileSketch.from_dict(sk.to_dict())
        assert back == sk
        assert back.quantile(0.99) == sk.quantile(0.99)

    def test_quantiles_monotone(self):
        sk = QuantileSketch()
        sk.add_many([random.Random(1).uniform(1, 100) for _ in range(500)])
        qs = sk.quantiles((0.1, 0.5, 0.9, 0.99))
        assert qs == sorted(qs)


# ---------------------------------------------------------------------------
# MetricsRegistry / instruments
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("queries_total", "q")
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("hits_total") is reg.counter("hits_total")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")
        with pytest.raises(ValueError):
            MetricsRegistry(namespace="0bad")

    def test_intern_labels_sorted_and_stringified(self):
        assert intern_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
        assert intern_labels(None) == ()
        key = intern_labels({"workload": "zipf"})
        assert intern_labels(key) is key or intern_labels(key) == key

    def test_labelled_series_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("served_total", labels={"workload": "zipf"})
        b = reg.counter("served_total", labels={"workload": "uniform"})
        assert a is not b
        a.inc(2)
        fam = reg.get("served_total")
        assert len(fam.series) == 2

    def test_meter_windowed_rate(self):
        reg = MetricsRegistry()
        m = reg.meter("qps", window_s=10.0, buckets=10)
        for i in range(100):
            m.mark(1.0, now=i * 0.1)  # 100 events over 10s
        assert m.rate(9.9) == pytest.approx(10.0, rel=0.35)
        # Long idle gap: stale slots expire and the rate decays to ~0.
        assert m.rate(1000.0) == 0.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", "queries").inc(3)
        reg.histogram("hops", "hop histogram").add(5.0)
        snap = reg.snapshot(now=1.0)
        assert snap["repro_serve_queries_total"]["type"] == "counter"
        assert snap["repro_serve_queries_total"]["series"][0]["value"] == 3.0
        hist = snap["repro_serve_hops"]["series"][0]
        assert hist["count"] == 1 and hist["max"] == 5.0
        assert "0.99" in hist["quantiles"]

    def test_histogram_exemplar_reservoir_keeps_worst(self):
        reg = MetricsRegistry()
        h = reg.histogram("stretch", exemplar_limit=2)
        for v in (1.0, 5.0, 2.0, 9.0, 3.0):
            h.add(v)
            if h.wants_exemplar(v):
                h.offer_exemplar(v, {"v": v})
        worst = sorted(e["value"] for e in h.exemplars())
        assert worst == [5.0, 9.0]


# ---------------------------------------------------------------------------
# Prometheus exposition: render + strict parse
# ---------------------------------------------------------------------------

class TestExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", "Total queries.").inc(7)
        reg.gauge("budget", "Budget left.").set(0.5)
        m = reg.meter("qps", "Rate.")
        m.mark(5, now=1.0)
        h = reg.histogram("latency_us", "Latency.")
        h.add(10.0)
        h.add(200.0)
        return reg

    def test_render_parse_roundtrip(self):
        text = render_prometheus(self._registry(), now=2.0)
        families = parse_prometheus(text)
        counter = families["repro_serve_queries_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][0][2] == 7.0
        hist = families["repro_serve_latency_us"]
        buckets = [s for s in hist["samples"] if s[0].endswith("_bucket")]
        counts = [v for (_, _, v) in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 2.0

    def test_meter_exposes_total_and_rate(self):
        text = render_prometheus(self._registry(), now=2.0)
        assert "repro_serve_qps_total 5" in text
        assert "repro_serve_qps_per_s" in text

    def test_write_prometheus(self, tmp_path):
        out = tmp_path / "metrics.prom"
        write_prometheus(self._registry(), out, now=2.0)
        families = parse_prometheus(out.read_text())
        assert "repro_serve_queries_total" in families

    def test_label_escaping(self):
        reg = MetricsRegistry(namespace="")
        reg.counter("c_total", labels={"path": 'a"b\\c\nd'}).inc()
        families = parse_prometheus(render_prometheus(reg))
        (_, labels, value) = families["c_total"]["samples"][0]
        assert labels["path"] == 'a"b\\c\nd'
        assert value == 1.0

    @pytest.mark.parametrize("bad", [
        "some_metric 1.0\n",                      # sample before # TYPE
        "# TYPE h histogram\nh_bucket{le=\"1\"} 2\n"
        "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",  # non-cumulative
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n"
        "h_sum 1\nh_count 1\n",                   # missing +Inf
        "# TYPE c counter\nc nope\n",             # malformed value
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ExpositionError):
            parse_prometheus(bad)

    def test_exemplars_round_trip_with_trace_id(self):
        # S19: exemplar payloads (including the trace id linking to
        # `repro explain`) must survive render -> parse, OpenMetrics-style.
        reg = MetricsRegistry()
        h = reg.histogram("stretch", "Stretch.", exemplar_limit=4)
        payloads = []
        for i, v in enumerate([1.5, 9.0, 3.0]):
            h.add(v)
            payload = {"source": f"u{i}", "target": f"v{i}",
                       "trace_id": f"zipf-0-{i:06d}"}
            payloads.append((v, payload))
            if h.wants_exemplar(v):
                h.offer_exemplar(v, payload)
        text = render_prometheus(reg, now=1.0)
        assert " # {" in text
        families = parse_prometheus(text)
        exemplars = families["repro_serve_stretch"].get("exemplars")
        assert exemplars, "rendered exemplars must parse back"
        by_value = {e["value"]: e["labels"] for e in exemplars}
        for v, payload in payloads:
            if v in by_value:
                labels = by_value[v]
                assert labels["trace_id"] == payload["trace_id"]
                assert labels["source"] == payload["source"]
        # The worst value always lands in some rendered bucket line.
        assert 9.0 in by_value

    def test_exemplar_payload_helper_shape(self):
        from repro.metrics import exemplar_payload
        from repro.serve import ServeResult
        r = ServeResult(source=3, target=9, path=[3, 5, 9], length=4.0,
                        ok=True, cached=True)
        p = exemplar_payload(r, trace_id="uniform-0-000007")
        assert p == {"source": "3", "target": "9", "hops": 2,
                     "path_prefix": ["3", "5", "9"], "cached": True,
                     "trace_id": "uniform-0-000007"}
        assert "trace_id" not in exemplar_payload(r)


# ---------------------------------------------------------------------------
# SLO monitor: windows, burn rules, alerts
# ---------------------------------------------------------------------------

class TestWindowedRatio:
    def test_totals_and_expiry(self):
        w = WindowedRatio(window_s=10.0, buckets=10)
        w.record(8.0, 2.0, now=0.5)
        assert w.totals(0.5) == (8.0, 2.0)
        assert w.error_rate(0.5) == pytest.approx(0.2)
        # Past the window the old bucket has rolled off.
        assert w.totals(100.0) == (0.0, 0.0)


class TestBurnRules:
    def test_default_rules_shape(self):
        names = [r.name for r in DEFAULT_RULES]
        assert names == ["fast", "slow"]

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            BurnRule("bad", long_window_s=1.0, short_window_s=5.0,
                     burn_rate=2.0)


class TestSloMonitor:
    def test_healthy_stream_no_alerts(self):
        mon = SloMonitor(objective=0.99)
        for i in range(500):
            mon.record(1.0, 0.0, now=i * 0.1)
        assert mon.check(50.0) == []
        assert mon.active_alerts() == []
        assert mon.budget_remaining == 1.0

    def test_burst_fires_fast_arm_then_resolves(self):
        mon = SloMonitor(objective=0.99)
        transitions = []
        # Heavy error burst: 50% failures, far over the 14.4x burn line.
        t = 0.0
        for i in range(200):
            t = i * 0.1
            transitions += mon.record(0.5, 0.5, now=t)
        fired = [a for a in transitions if a.state == "firing"]
        assert any(a.rule == "fast" for a in fired)
        assert mon.active_alerts()
        assert mon.budget_remaining < 1.0
        # Clean traffic long enough for both windows to drain.
        for i in range(4000):
            t += 0.1
            transitions += mon.record(1.0, 0.0, now=t)
        resolved = [a for a in transitions if a.state == "resolved"]
        assert {a.rule for a in fired} == {a.rule for a in resolved}
        assert mon.active_alerts() == []

    def test_alert_event_shape(self):
        mon = SloMonitor(objective=0.9)
        out = []
        for i in range(100):
            out += mon.record(0.0, 1.0, now=i * 0.5)
        assert out, "an all-failure stream must alert"
        evt = out[0]
        assert isinstance(evt, SloAlert)
        d = evt.to_dict()
        assert d["state"] == "firing"
        assert d["burn_rate"] > 0 and 0 <= d["budget_remaining"] <= 1
        dump = mon.to_dict()
        assert dump["objective"] == 0.9
        assert dump["alerts"] and dump["rules"]


# ---------------------------------------------------------------------------
# ServeMetrics bundle
# ---------------------------------------------------------------------------

def _batch(*paths, failed=()):
    """The RouteBatch of queries with these paths (``failed``: indices)."""
    return RouteBatch.of(
        ServeResult(0, 0, path, 0.0, i not in failed,
                    "failed" if i in failed else None)
        for i, path in enumerate(paths))


class TestServeMetricsBundle:
    def test_batch_and_deferred_hops(self):
        m = ServeMetrics()
        m.record_batch(3, 0, 1, 2)
        m.defer_path_lengths(_batch([1, 2, 3], [1], [1, 2]))
        assert m.hops.count == 0, "hop counting defers until scrape"
        m.flush()
        assert m.hops.count == 3
        assert m.hops.sum == pytest.approx(2 + 0 + 1)
        assert m.queries.value == 3 and m.cache_hits.value == 1

    def test_deferred_skips_failures(self):
        m = ServeMetrics()
        m.defer_path_lengths(_batch([1, 2, 3], [], failed={1}))
        m.flush()
        assert m.hops.count == 1

    def test_record_result_single_path(self):
        m = ServeMetrics()
        m.record_result(True, 4, cached=True)
        m.record_result(False, 0, cached=False)
        m.flush()
        assert m.queries.value == 2
        assert m.failures.value == 1
        assert m.cache_hits.value == 1
        assert m.hops.count == 1 and m.hops.sum == 4.0

    def test_long_path_overflows_scratch_exactly(self):
        m = ServeMetrics()
        m.record_result(True, 600, cached=False)
        m.flush()
        assert m.hops.count == 1
        assert m.hops.sketch.max_value == 600.0

    def test_observe_query_feeds_slo_and_exemplars(self):
        m = ServeMetrics(slo_objective=0.9)
        for i in range(50):
            stretch = 5.0 if i % 2 else 1.0  # half the queries violate
            m.observe_query(10.0, now=i * 0.1, stretch=stretch,
                            slo_bound=3.0,
                            exemplar={"q": i})
        assert m.slo.total == 50.0
        assert m.budget_gauge.value < 1.0
        worst = m.stretch.exemplars()
        assert worst and all(e["value"] == 5.0 for e in worst)

    def test_snapshot_includes_slo_state(self):
        m = ServeMetrics()
        m.record_batch(5, 0, 0, 5)
        snap = m.snapshot(now=1.0)
        assert snap["slo"]["objective"] == 0.99
        assert snap["repro_serve_queries_total"]["series"][0]["value"] == 5.0

    def test_expose_parses(self):
        m = ServeMetrics()
        m.record_result(True, 3, cached=False)
        m.observe_query(12.5, now=0.1, stretch=1.2, slo_bound=9.0)
        families = parse_prometheus(m.expose(now=1.0))
        assert "repro_serve_hops" in families
        assert "repro_serve_latency_us" in families
