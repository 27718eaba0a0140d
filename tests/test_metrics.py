"""Tests for ``repro.metrics`` — the live serving observability layer (S18).

Covers the quantile sketch's error contract, the registry/instrument
semantics, Prometheus exposition (render *and* the strict parser), and
the ``ServeMetrics`` bundle the engine/harness hot paths feed.
"""

import math
import random

import pytest

from repro.graphs import random_connected_graph
from repro.metrics import (
    ExpositionError,
    MetricsRegistry,
    QuantileSketch,
    ServeMetrics,
    intern_labels,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
)
from repro.serve import RouteBatch, ServeEngine, ServeResult, compile_scheme
from repro.tz import build_centralized_scheme


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
            reg.histogram("x_total")
        reg.histogram("x_us")
        with pytest.raises(ValueError):
            reg.counter("x_us")

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

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", "queries").inc(3)
        reg.histogram("hops", "hop histogram").add(5.0)
        snap = reg.snapshot()
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
        h = reg.histogram("latency_us", "Latency.")
        h.add(10.0)
        h.add(200.0)
        return reg

    def test_render_parse_roundtrip(self):
        text = render_prometheus(self._registry())
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

    def test_write_prometheus(self, tmp_path):
        out = tmp_path / "metrics.prom"
        write_prometheus(self._registry(), out)
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
        "# HELP repro_serve_qps Serving rate over the trailing window.\n"
        "# TYPE repro_serve_qps_total counter\n"
        "repro_serve_qps_total 2000\n"
        "# TYPE repro_serve_qps_per_s gauge\n",  # HELP never TYPEd
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
        text = render_prometheus(reg)
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
# ServeMetrics bundle
# ---------------------------------------------------------------------------

def _batch(*paths, failed=()):
    """The RouteBatch of queries with these paths (``failed``: indices)."""
    return RouteBatch.of(
        ServeResult(0, 0, path, 0.0, i not in failed,
                    "failed" if i in failed else None)
        for i, path in enumerate(paths))


@pytest.fixture(scope="module")
def served():
    """Compiled tables and a stream with repeats (cache hits) and routes
    longer than five hops (failures under ``max_hops=5``)."""
    graph = random_connected_graph(80, seed=5)
    compiled = compile_scheme(build_centralized_scheme(graph, 2, seed=5), graph)
    rng = random.Random(5)
    nodes = sorted(compiled.nodes)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(150)]
    return compiled, pairs + pairs[:50]


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

    def test_route_recorded_single_path(self, served):
        """``route_recorded`` is a batch of one: query by query, it leaves
        the counters and hop histogram ``route_many`` leaves for the same
        stream, and a failure counts no cache hit and no hops."""
        compiled, pairs = served
        one, many = ServeMetrics(), ServeMetrics()
        engine = ServeEngine(compiled, max_hops=5, metrics=one)
        results = [engine.route_recorded(u, v) for u, v in pairs]
        ServeEngine(compiled, max_hops=5, metrics=many).route_many(pairs)
        one.flush()
        many.flush()
        delivered = [r for r in results if r.ok]
        assert 0 < len(delivered) < len(results), "need hits, misses, failures"
        assert one.queries.value == len(results)
        assert one.failures.value == len(results) - len(delivered)
        assert one.cache_hits.value == sum(r.cached for r in delivered) > 0
        assert one.cache_misses.value == engine.cache.misses
        assert one.hops.count == len(delivered)
        assert one.hops.sum == sum(len(r.path) - 1 for r in delivered)
        for name in ("queries", "failures", "cache_hits", "cache_misses"):
            assert getattr(one, name).value == getattr(many, name).value, name
        assert one.hops.sketch == many.hops.sketch

    def test_long_path_overflows_scratch_exactly(self):
        m = ServeMetrics()
        m.record_path_lengths({601: 1})
        m.flush()
        assert m.hops.count == 1
        assert m.hops.sketch.max_value == 600.0

    def test_snapshot_has_no_slo_key(self):
        m = ServeMetrics()
        m.record_batch(5, 0, 0, 5)
        snap = m.snapshot()
        assert "slo" not in snap
        assert snap["repro_serve_queries_total"]["series"][0]["value"] == 5.0

    def test_expose_parses(self):
        m = ServeMetrics()
        m.record_batch(1, 0, 0, 1)
        m.record_path_lengths({4: 1})
        m.latency_us.add(12.5)
        m.stretch.add(1.2)
        families = parse_prometheus(m.expose())
        assert "repro_serve_hops" in families
        assert "repro_serve_latency_us" in families
        assert "repro_serve_stretch" in families
