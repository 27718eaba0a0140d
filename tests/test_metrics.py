"""Tests for ``repro.metrics`` — the live serving observability layer (S18).

Covers the quantile sketch's error contract, Prometheus exposition
(render *and* the strict parser), and the ``ServeMetrics`` bundle:
the cumulative fold of the reports ``serve_pairs`` hands it.
"""

import math
import random

import networkx as nx
import pytest

from repro.graphs import random_connected_graph
from repro.metrics import (
    ExpositionError,
    QuantileSketch,
    ServeMetrics,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
)
from repro.metrics.serve import EXEMPLAR_LIMIT, exemplar_order, worst_exemplars
from repro.serve import ServeEngine, compile_scheme, run_serving, serve_pairs
from repro.tracing import Tracer
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
# Shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    """Graph, compiled tables and a stream with repeats (cache hits) and
    routes longer than five hops (failures under ``max_hops=5``)."""
    graph = random_connected_graph(80, seed=5)
    compiled = compile_scheme(build_centralized_scheme(graph, 2, seed=5), graph)
    rng = random.Random(5)
    nodes = sorted(compiled.nodes)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(150)]
    return graph, compiled, pairs + pairs[:50]


def _bundle(served, **kwargs):
    """A bundle fed one ``serve_pairs`` call over the served stream."""
    graph, compiled, pairs = served
    metrics = ServeMetrics()
    report, _ = serve_pairs(ServeEngine(compiled, max_hops=5), graph, pairs,
                            metrics=metrics, **kwargs)
    return metrics, report


def _exemplar_keys(exemplars):
    return [(x["value"], x["source"], x["target"]) for x in exemplars]


# ---------------------------------------------------------------------------
# Prometheus exposition: render + strict parse
# ---------------------------------------------------------------------------

class TestExposition:
    def test_render_parse_roundtrip(self, served):
        metrics, report = _bundle(served)
        families = parse_prometheus(render_prometheus(metrics))
        counter = families["repro_serve_queries_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][0][2] == report.queries
        hist = families["repro_serve_latency_us"]
        buckets = [s for s in hist["samples"] if s[0].endswith("_bucket")]
        counts = [v for (_, _, v) in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == report.queries

    def test_write_prometheus(self, served, tmp_path):
        out = tmp_path / "metrics.prom"
        write_prometheus(_bundle(served)[0], out)
        families = parse_prometheus(out.read_text())
        assert "repro_serve_queries_total" in families

    def test_label_escaping(self):
        """Exemplar payloads carry node ids and trace ids verbatim: string
        ids holding ``"``, ``\\`` and newlines survive render -> parse."""
        odd = 'n"{}\\\n'
        graph = nx.relabel_nodes(random_connected_graph(30, seed=3), odd.format)
        scheme = build_centralized_scheme(graph, 2, seed=3)
        metrics = ServeMetrics()
        run_serving(scheme, graph, queries=200, seed=1, metrics=metrics,
                    tracer=Tracer(rate=0.0, seed=1, prefix='p"\\\n'))
        assert metrics.exemplars
        families = parse_prometheus(metrics.expose())
        parsed = families["repro_serve_stretch"]["exemplars"]
        assert parsed
        for entry in parsed:
            labels = entry["labels"]
            assert '"' in labels["source"] and "\\" in labels["source"]
            assert "\n" in labels["trace_id"]
            want = next(x for x in metrics.exemplars
                        if x["trace_id"] == labels["trace_id"])
            assert labels == {k: str(v) for k, v in want.items()
                              if k != "value"}
            assert entry["value"] == want["value"]

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

    def test_exemplars_round_trip_with_trace_id(self, served):
        # S19: exemplar payloads (including the trace id linking to
        # `repro explain`) must survive render -> parse, OpenMetrics-style.
        metrics, report = _bundle(
            served, tracer=Tracer(rate=0.0, seed=2, prefix="zipf-0"))
        text = render_prometheus(metrics)
        assert " # {" in text
        families = parse_prometheus(text)
        exemplars = families["repro_serve_stretch"].get("exemplars")
        assert exemplars, "rendered exemplars must parse back"
        by_trace = {x["trace_id"]: x for x in metrics.exemplars}
        for parsed in exemplars:  # at most one per bucket line
            payload = by_trace[parsed["labels"]["trace_id"]]
            assert parsed["value"] == payload["value"]
            assert parsed["labels"]["source"] == payload["source"]
        # The worst value always lands in some rendered bucket line.
        assert report.sketches["stretch"].max_value in {
            e["value"] for e in exemplars}

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
# ServeMetrics bundle: the fold of serve reports
# ---------------------------------------------------------------------------

class TestServeMetricsBundle:
    def test_snapshot_shape(self, served):
        metrics, report = _bundle(served)
        snap = metrics.snapshot()
        assert list(snap) == [
            "repro_serve_queries_total", "repro_serve_failures_total",
            "repro_serve_cache_hits_total", "repro_serve_cache_misses_total",
            "repro_serve_hops", "repro_serve_latency_us",
            "repro_serve_stretch"]
        queries = snap["repro_serve_queries_total"]
        assert queries["type"] == "counter"
        assert queries["series"] == [{"labels": {}, "value": 200.0}]
        hops = snap["repro_serve_hops"]["series"][0]
        assert hops["count"] == report.queries - report.failures
        assert hops["max"] == report.hops_max
        assert set(hops["quantiles"]) == {"0.5", "0.9", "0.99"}
        assert "exemplars" not in hops
        stretch = snap["repro_serve_stretch"]["series"][0]
        assert stretch["exemplars"] == metrics.exemplars == report.exemplars

    def test_exemplars_keep_the_worst_under_one_order(self):
        """Ties on value break on source, then target, then the rest of
        the payload, so the kept set never depends on arrival order."""
        entries = [{"value": v, "source": s, "target": t, "cached": c}
                   for v, s, t, c in [(3.0, "b", "x", False),
                                      (1.0, "a", "a", False),
                                      (3.0, "a", "y", True),
                                      (3.0, "a", "y", False),
                                      (9.0, "z", "z", False)]]
        want = [(9.0, "z", "z", False), (3.0, "a", "y", False),
                (3.0, "a", "y", True)]
        for shuffled in (entries, entries[::-1], entries[2:] + entries[:2]):
            kept = worst_exemplars(shuffled, 3)
            assert [(x["value"], x["source"], x["target"], x["cached"])
                    for x in kept] == want
        assert sorted(entries, key=exemplar_order)[:3] == \
            worst_exemplars(entries, 3)

    def test_fold_is_exact_across_calls(self, served):
        """Two calls on one warm engine, folded into one bundle, read what
        one call over the concatenated stream reads: counters, the hops
        and stretch sketches, and the exemplars."""
        graph, compiled, pairs = served
        cut = len(pairs) // 3
        split = ServeMetrics()
        engine = ServeEngine(compiled, max_hops=5, metrics=split)
        first, _ = serve_pairs(engine, graph, pairs[:cut])
        second, _ = serve_pairs(engine, graph, pairs[cut:])
        whole = ServeMetrics()
        report, _ = serve_pairs(ServeEngine(compiled, max_hops=5), graph,
                                pairs, metrics=whole)
        assert 0 < report.failures and 0 < report.cache_hits
        assert split.totals == whole.totals == {
            "queries": report.queries, "failures": report.failures,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses}
        assert split.sketches["hops"] == whole.sketches["hops"]
        assert split.sketches["stretch"] == whole.sketches["stretch"]
        assert split.sketches["latency_us"].count == len(pairs)
        assert _exemplar_keys(split.exemplars) == \
            _exemplar_keys(whole.exemplars)
        assert len(whole.exemplars) == EXEMPLAR_LIMIT
        # Each report is that call's alone; the snapshot is cumulative.
        assert (first.queries, second.queries) == (cut, len(pairs) - cut)
        assert second.metrics == split.snapshot()

    def test_empty_stream_first(self, served):
        """An empty call's hops placeholder is not folded: the bundle's
        hops count is the number of delivered queries."""
        graph, compiled, pairs = served
        metrics = ServeMetrics()
        engine = ServeEngine(compiled, max_hops=5, metrics=metrics)
        empty, _ = serve_pairs(engine, graph, [])
        assert empty.sketches["hops"].count == 1  # the placeholder
        report, _ = serve_pairs(engine, graph, pairs)
        assert metrics.sketches["hops"].count == \
            report.queries - report.failures
        assert metrics.sketches["hops"] == report.sketches["hops"]

    def test_snapshot_has_no_slo_key(self, served):
        snap = _bundle(served)[0].snapshot()
        assert "slo" not in snap
        assert snap["repro_serve_queries_total"]["series"][0]["value"] == 200.0

    def test_expose_parses(self, served):
        families = parse_prometheus(_bundle(served)[0].expose())
        assert "repro_serve_hops" in families
        assert "repro_serve_latency_us" in families
        assert "repro_serve_stretch" in families
        assert parse_prometheus(ServeMetrics().expose())["repro_serve_hops"]
