"""Tests for the serving harness, SLO verdicts, and the serve CLI."""

import copy
import json

import pytest

from repro.__main__ import build_parser, main
from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.metrics import QuantileSketch, ServeMetrics
from repro.serve import (
    SKETCH_ACCURACY,
    ServeEngine,
    compile_scheme,
    make_workload,
    percentile,
    run_serving,
    serve_pairs,
    slo_verdict,
)
from repro.serve.harness import _per_query_stretch
from repro.telemetry import record_run
from repro.tracing import Tracer
from repro.tz import build_centralized_scheme, build_tree_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(70, seed=89)
    return graph, build_centralized_scheme(graph, 2, seed=89)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 1) == 1.0
        assert percentile([], 50) == 0.0

    def test_monotone(self):
        values = list(range(100))
        assert percentile(values, 50) <= percentile(values, 90) \
               <= percentile(values, 99)


class TestRunServing:
    def test_report_fields(self, built):
        graph, scheme = built
        report, results = run_serving(scheme, graph, workload="zipf",
                                      queries=400, seed=3)
        assert report.queries == len(results) == 400
        assert report.workload == "zipf" and report.seed == 3
        assert report.throughput_qps > 0 and report.serve_s > 0
        assert report.hops_p50 <= report.hops_p90 <= report.hops_p99 \
               <= report.hops_max
        assert report.latency_us_p50 <= report.latency_us_p99
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert report.failures == 0
        # Theorem 3 SLO: 4k-3 with k=2.
        assert report.slo_bound == pytest.approx(5.0)
        assert report.slo_fraction == pytest.approx(1.0)
        assert report.slo_ok is True
        assert report.packed["kind"] == "graph"

    def test_to_row_and_render(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, queries=50, seed=4)
        row = report.to_row()
        assert row["workload"] == "uniform" and row["slo_ok"] is True
        json.dumps(row)  # must be JSON-clean
        text = report.render()
        assert "throughput" in text and "stretch SLO" in text and "PASS" in text

    def test_tree_scheme_skips_slo(self):
        graph = random_connected_graph(50, seed=90)
        parent = spanning_tree_of(graph, style="dfs", seed=90)
        scheme = build_tree_scheme(parent)
        report, _ = run_serving(scheme, graph, queries=60, seed=5)
        assert report.slo_fraction is None and report.slo_ok is None
        assert slo_verdict(report) is None
        assert "stretch SLO" not in report.render()

    def test_count_and_continue(self, built):
        graph, scheme = built
        import copy
        broken = copy.deepcopy(scheme)
        victims = [v for v in list(broken.tables)[:20]]
        for v in victims:
            broken.tables[v].trees.clear()
        report, results = run_serving(broken, graph, queries=300, seed=6)
        assert report.queries == 300  # nothing aborted
        assert report.failures == sum(1 for r in results if not r.ok) > 0
        assert report.slo_fraction < 1.0  # failures violate the SLO

    def test_adversarial_workload_runs(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, workload="adversarial",
                                queries=40, seed=7)
        assert report.queries == 40 and report.failures == 0

    def test_prebuilt_engine_warm_cache(self, built):
        graph, scheme = built
        engine = ServeEngine(compile_scheme(scheme, graph), cache_size=4096)
        run_serving(scheme, graph, queries=200, seed=8, engine=engine)
        report, _ = run_serving(scheme, graph, queries=200, seed=8,
                                engine=engine)
        assert report.cache_hit_rate > 0.5  # identical stream, warm cache

    def test_recorded_run_record(self, built):
        graph, scheme = built
        report, record = record_run(lambda: run_serving(
            scheme, graph, workload="zipf", queries=150, seed=9)[0])
        assert record.kind == "serve"
        assert record.workload["workload"] == "zipf"
        assert record.columns[0]["throughput_qps"] > 0
        assert [v.name for v in record.verdicts] == \
               ["serve/zipf/stretch-slo"]
        assert record.passed
        doc = json.loads(record.to_json())
        assert doc["kind"] == "serve"

    def test_slo_verdict_shape(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, queries=50, seed=10)
        verdict = slo_verdict(report)
        assert verdict.passed is True
        assert verdict.column == "slo_fraction"
        assert verdict.limit == report.slo_target
        assert "frac(stretch" in verdict.formula


def _broken(scheme):
    """Twenty vertices lose their tables: routes through them fail."""
    broken = copy.deepcopy(scheme)
    for v in list(broken.tables)[:20]:
        broken.tables[v].trees.clear()
    return broken


_COUNTERS = ("repro_serve_queries_total", "repro_serve_failures_total",
             "repro_serve_cache_hits_total", "repro_serve_cache_misses_total",
             "repro_serve_hops")


class TestMeasurementLoop:
    """``serve_pairs`` drives the batched loop; the single-query
    ``route_recorded`` loop it replaced stays the reference it must
    reproduce, instrument for instrument."""

    @pytest.fixture(scope="class", params=["zipf", "uniform", "adversarial",
                                           "failures"])
    def stream(self, request, built):
        graph, scheme = built
        workload, fails = request.param, request.param == "failures"
        if fails:
            scheme, workload = _broken(scheme), "uniform"
        compiled = compile_scheme(scheme, graph)
        probe = ServeEngine(compiled, cache_size=0)

        def route_length(u, v):
            result = probe.route_recorded(u, v)
            return result.length if result.ok else None

        pairs = make_workload(workload, graph, compiled.nodes, 600, 17,
                              route_length=route_length)
        return graph, compiled, pairs, fails

    @pytest.mark.parametrize("instrumented", [False, True],
                             ids=["plain", "metrics+tracer"])
    def test_equals_route_recorded_loop(self, stream, instrumented):
        graph, compiled, pairs, fails = stream

        def attached():
            if not instrumented:
                return {}
            return {"metrics": ServeMetrics(),
                    "tracer": Tracer(rate=0.05, seed=3)}

        # A cache smaller than the stream's distinct pairs: evictions too.
        new = ServeEngine(compiled, cache_size=64, **attached())
        report, results = serve_pairs(new, graph, pairs, seed=17)

        old = ServeEngine(compiled, cache_size=64, **attached())
        expected = [old.route_recorded(u, v) for u, v in pairs]

        assert results == expected
        assert [r.cached for r in results] == [r.cached for r in expected]
        assert new.stats() == old.stats()
        assert report.failures == old.failures < len(pairs)
        assert (report.failures > 0) == fails

        hops = QuantileSketch(SKETCH_ACCURACY)
        for r in expected:
            if r.ok:
                hops.add(r.hops)
        assert report.sketches["hops"] == hops
        assert report.sketches["hops"].to_dict() == hops.to_dict()
        stretches = _per_query_stretch(graph, expected)
        stretch = QuantileSketch(SKETCH_ACCURACY)
        stretch.add_many([x for x in stretches if x is not None])
        assert report.sketches["stretch"] == stretch

        if instrumented:
            got = new.metrics.snapshot(now=1.0)
            want = old.metrics.snapshot(now=1.0)
            for name in _COUNTERS:
                assert got[name]["series"] == want[name]["series"], name
            assert new.metrics.hops.sketch == old.metrics.hops.sketch
            assert new.metrics.latency_us.count == len(pairs)
            ref_traces = old.tracer.finalize(old, expected, stretches,
                                             graph=graph)
            assert ([(t.trace_id, t.via) for t in report.traces]
                    == [(t.trace_id, t.via) for t in ref_traces])
            assert len(new.tracer.head) == len(old.tracer.head) > 0

    def test_latency_is_boundary_to_boundary(self, stream):
        graph, compiled, pairs, _ = stream
        report, _ = serve_pairs(ServeEngine(compiled), graph, pairs, slo=False)
        latency = report.sketches["latency_us"]
        assert latency.count == report.queries == len(pairs)
        assert latency.min_value > 0.0 and latency.zero_count == 0
        # The gaps tile the loop, and the loop sits inside serve_s.
        assert latency.total <= report.serve_s * 1e6
        assert report.latency_us_p50 <= report.latency_us_p99 \
               <= latency.max_value

    def test_empty_stream(self, built):
        graph, scheme = built
        engine = ServeEngine(compile_scheme(scheme, graph),
                             metrics=ServeMetrics())
        report, results = serve_pairs(engine, graph, [])
        assert results == [] and report.queries == 0
        assert report.sketches["latency_us"].count == 0
        assert report.latency_us_p99 == 0.0 and report.hops_max == 0.0
        assert report.slo_fraction == 1.0

    def test_tree_engine(self):
        graph = random_connected_graph(50, seed=90)
        scheme = build_tree_scheme(
            spanning_tree_of(graph, style="dfs", seed=90))
        compiled = compile_scheme(scheme, graph)
        pairs = make_workload("uniform", graph, compiled.nodes, 80, 5)
        report, results = serve_pairs(ServeEngine(compiled), graph, pairs)
        reference = ServeEngine(compiled)
        assert results == [reference.route_recorded(u, v) for u, v in pairs]
        assert report.sketches["latency_us"].count == len(pairs)
        assert report.sketches["latency_us"].min_value > 0.0

    def test_route_many_without_buffer_reads_no_clock(self, built,
                                                      monkeypatch):
        """The stopwatch is the caller's choice, not a standing cost."""
        from repro.serve import engine as engine_module

        graph, scheme = built
        compiled = compile_scheme(scheme, graph)
        pairs = make_workload("uniform", graph, compiled.nodes, 50, 2)

        def no_clock():
            raise AssertionError("route_many read the clock unasked")

        monkeypatch.setattr(engine_module, "perf_counter", no_clock)
        assert len(ServeEngine(compiled).route_many(pairs)) == len(pairs)


class TestServeEngineUnits:
    def test_mode_validated(self, built):
        graph, scheme = built
        with pytest.raises(ValueError):
            ServeEngine(compile_scheme(scheme, graph), mode="worst")

    def test_cache_lru_eviction(self, built):
        graph, scheme = built
        engine = ServeEngine(compile_scheme(scheme, graph), cache_size=2)
        nodes = list(graph.nodes)
        a, b, c, d = nodes[:4]
        engine.route(a, b)
        engine.route(a, c)
        engine.route(a, b)  # refresh (a, b)
        engine.route(a, d)  # evicts (a, c), the least recent
        assert (a, b) in engine.cache._data
        assert (a, c) not in engine.cache._data
        assert len(engine.cache) == 2

    def test_cache_disabled(self, built):
        graph, scheme = built
        engine = ServeEngine(compile_scheme(scheme, graph), cache_size=0)
        nodes = list(graph.nodes)
        engine.route(nodes[0], nodes[1])
        engine.route(nodes[0], nodes[1])
        assert len(engine.cache) == 0 and engine.cache.hit_rate == 0.0

    def test_stats_and_clear(self, built):
        graph, scheme = built
        engine = ServeEngine(compile_scheme(scheme, graph))
        nodes = list(graph.nodes)
        engine.route_many([(nodes[0], nodes[1])] * 3)
        stats = engine.stats()
        assert stats["queries"] == 3 and stats["cache_hits"] == 2
        assert stats["cache_hit_rate"] == pytest.approx(2 / 3, abs=1e-4)
        engine.cache.clear()
        assert engine.stats()["cache_size"] == 0


class TestServeCli:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(
            ["serve", "--workload", "zipf", "--queries", "50", "--n", "40",
             "--json"]
        )
        assert args.command == "serve" and args.workload == "zipf"

    def test_text_output(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "stretch SLO" in out

    def test_json_run_record(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "60",
                   "--workload", "zipf", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "serve"
        row = doc["columns"][0]
        for key in ("throughput_qps", "hops_p50", "latency_us_p50",
                    "cache_hit_rate", "slo_fraction"):
            assert key in row
        assert doc["verdicts"][0]["passed"] is True

    def test_strict_passes_on_healthy_scheme(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "60",
                   "--strict", "--quiet"])
        assert rc == 0

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "serve.txt"
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "40",
                   "--quiet", "--out", str(out)])
        assert rc == 0
        assert "throughput" in out.read_text()
        assert capsys.readouterr().out == ""

    def test_distributed_builder(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "40",
                   "--builder", "distributed", "--quiet"])
        assert rc == 0


class TestReportQuantiles:
    """The sketch-backed percentile path, differentially tested against
    the exact ``percentile`` reference (S18 satellite)."""

    @pytest.mark.parametrize("workload",
                             ["uniform", "zipf", "gravity", "adversarial"])
    def test_hops_sketch_matches_exact(self, built, workload):
        graph, scheme = built
        report, results = run_serving(scheme, graph, workload=workload,
                                      queries=500, seed=11)
        hops = [len(r.path) - 1 for r in results if r.ok]
        for q in (0.5, 0.9, 0.99):
            exact = percentile(hops, q * 100)
            est = report.quantiles("hops", (q,))[0]
            assert abs(est - exact) <= SKETCH_ACCURACY * exact + 1e-9, \
                (workload, q)
        # The report's own hop columns are the rounded sketch estimates,
        # which the 0.005 accuracy keeps integer-exact below 100 hops.
        assert report.hops_p50 == percentile(hops, 50)
        assert report.hops_p99 == percentile(hops, 99)

    def test_latency_quantiles_consistent_with_columns(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, queries=300, seed=12)
        p50, p90, p99 = report.quantiles("latency_us", (0.5, 0.9, 0.99))
        assert p50 == report.latency_us_p50
        assert p90 == report.latency_us_p90
        assert p99 == report.latency_us_p99

    def test_stretch_sketch_present_on_slo_runs(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, queries=200, seed=13)
        assert set(report.sketches) >= {"hops", "latency_us", "stretch"}
        (p99,) = report.quantiles("stretch", (0.99,))
        assert p99 <= report.slo_bound + SKETCH_ACCURACY * p99

    def test_unknown_sketch_raises_with_choices(self, built):
        graph, scheme = built
        report, _ = run_serving(scheme, graph, queries=50, seed=14)
        with pytest.raises(KeyError, match="hops"):
            report.quantiles("nope")


class TestCachePersistence:
    """DecisionCache.save/load (S20 satellite): versioned warm-cache
    files, LRU order preserved, restored hit rate >= the warm run's."""

    def test_save_load_round_trip_hit_rate(self, built, tmp_path):
        from repro.serve import DecisionCache
        from repro.serve.workloads import make_workload

        graph, scheme = built
        compiled = compile_scheme(scheme, graph)
        pairs = make_workload("zipf", graph, compiled.nodes, 400, 41)
        path = tmp_path / "cache.json"

        engine = ServeEngine(compiled, cache_size=4096)
        for u, v in pairs:
            engine.route(u, v)
        cold = engine.stats()
        engine.cache.save(path)
        for u, v in pairs:
            engine.route(u, v)
        after = engine.stats()
        lookups = (after["cache_hits"] + after["cache_misses"]
                   - cold["cache_hits"] - cold["cache_misses"])
        warm_rate = (after["cache_hits"] - cold["cache_hits"]) / lookups

        restored = ServeEngine(
            compiled, cache=DecisionCache.load(path, maxsize=4096))
        for u, v in pairs:
            restored.route(u, v)
        assert restored.stats()["cache_hit_rate"] >= warm_rate

    def test_lru_order_preserved(self, tmp_path):
        from repro.serve import DecisionCache

        cache = DecisionCache(8)
        for i in range(5):
            # The engine stores (tuple(path), length) tuples.
            cache.put((i, i + 1), ((i, i + 1), float(i)))
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = DecisionCache.load(path)
        assert loaded.entries() == cache.entries()
        assert loaded.maxsize == 8

    def test_file_is_the_text_json_dump_writes(self, tmp_path):
        """``save`` encodes with ``json.dumps`` (the C encoder); the file
        is byte for byte what the streaming ``json.dump`` wrote."""
        import io

        from repro.serve import DecisionCache

        cache = DecisionCache(8)
        cache.put(("a", (1, 2)), (("a", 3, (1, 2)), 2.5))
        cache.put((0, 1.5), ((0, 1.5), 1.0))
        path = tmp_path / "cache.json"
        cache.save(path, fingerprint="tables-a")
        streamed = io.StringIO()
        json.dump(json.loads(path.read_text()), streamed)
        assert path.read_text() == streamed.getvalue()

    def test_format_mismatch_raises(self, tmp_path):
        from repro.errors import InputError
        from repro.serve import DecisionCache

        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": 999, "maxsize": 4,
                                    "entries": []}))
        with pytest.raises(InputError):
            DecisionCache.load(path)

    @pytest.mark.parametrize("text", [
        '{"format": 1, "maxsize": 4, "entr',  # truncated mid-write
        '{"format": 1}',  # no maxsize / entries
        '{"format": 1, "maxsize": 4, "entries": [[{"i": 0}, {"i": 1}]]}',
        '[1, 2, 3]',  # not an object
    ], ids=["truncated", "missing-fields", "two-field-entry", "list"])
    def test_malformed_file_raises_input_error(self, tmp_path, text):
        from repro.errors import InputError
        from repro.serve import DecisionCache

        path = tmp_path / "cache.json"
        path.write_text(text)
        with pytest.raises(InputError, match="cache.json"):
            DecisionCache.load(path)

    def test_fingerprint_guards_load(self, tmp_path):
        from repro.serve import DecisionCache

        cache = DecisionCache(8)
        cache.put((0, 1), ((0, 1), 1.0))
        path = tmp_path / "cache.json"
        cache.save(path, fingerprint="tables-a")
        assert DecisionCache.load(path, fingerprint="tables-a").entries() \
            == cache.entries()
        assert DecisionCache.load(path).entries() == cache.entries()
        with pytest.raises(InputError, match="tables-a.*tables-b"):
            DecisionCache.load(path, fingerprint="tables-b")
        # A file that does not say what it was computed on proves nothing.
        cache.save(path)
        with pytest.raises(InputError, match="None.*tables-a"):
            DecisionCache.load(path, fingerprint="tables-a")

    def test_format_1_file_rejected(self, tmp_path):
        """Format 1 carried no fingerprint: it is refused, not trusted."""
        from repro.serve import DecisionCache

        path = tmp_path / "cache.json"
        path.write_text('{"format": 1, "maxsize": 4, "entries": []}')
        with pytest.raises(InputError, match="format 1 != 2"):
            DecisionCache.load(path)

    @pytest.mark.parametrize("writer,reader", [
        ([], []), (["--workers", "2"], ["--workers", "2"]),
        ([], ["--workers", "2"]), (["--workers", "2"], []),
    ], ids=["single", "pooled", "single-then-pooled", "pooled-then-single"])
    def test_cli_rejects_cache_of_other_tables(self, tmp_path, capsys,
                                               writer, reader):
        """A cached entry is a finished answer: served against another
        graph (here: another seed) it was a silently wrong path with the
        SLO reading PASS."""
        path = tmp_path / "serve-cache.json"

        def serve(*extra):
            return main(["serve", "--n", "60", "--k", "2", "--queries", "300",
                         "--workload", "zipf", "--cache-file", str(path),
                         *extra])

        assert serve("--seed", "1", *writer) == 0
        saved = path.read_text()
        capsys.readouterr()
        assert serve("--seed", "2", *reader) == 2
        refusal = capsys.readouterr().err
        assert refusal.startswith("repro serve: ") and refusal.count("\n") == 1
        assert json.loads(saved)["fingerprint"] in refusal
        assert refusal.count("/first") == 2  # both are named
        assert serve("--seed", "1", "--mode", "best", *reader) == 2
        assert "/best" in capsys.readouterr().err
        assert path.read_text() == saved  # a refused run rewrites nothing
        assert serve("--seed", "1", *reader) == 0
        assert "hit_rate=100.0%" in capsys.readouterr().out

    def test_cli_cache_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "serve-cache.json"
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "80",
                   "--workload", "zipf", "--seed", "6",
                   "--cache-file", str(path)])
        assert rc == 0 and path.exists()
        cold = capsys.readouterr().out
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "80",
                   "--workload", "zipf", "--seed", "6",
                   "--cache-file", str(path)])
        assert rc == 0
        warm = capsys.readouterr().out
        assert "hit_rate=100.0%" in warm and "hit_rate=100.0%" not in cold


class TestShardedCli:
    """repro serve --workers N (S20): the sharded serving path."""

    def test_workers_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--no-shm"])
        assert args.workers == 4 and args.shm is False
        args = build_parser().parse_args(["serve", "--workers", "2"])
        assert args.shm is True

    def test_two_worker_smoke(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "80",
                   "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards        2 workers" in out
        assert "stretch SLO" in out

    def test_json_has_shards_section(self, capsys):
        rc = main(["serve", "--n", "40", "--k", "2", "--queries", "80",
                   "--workers", "2", "--workload", "zipf", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "serve"
        assert len(doc["shards"]) == 2
        assert doc["columns"][0]["shards"] == 2
        assert sum(r["queries"] for r in doc["shards"]) == 80

    def test_workers_incompatible_with_tracing(self, capsys, tmp_path):
        rc = main(["serve", "--n", "40", "--queries", "20", "--workers",
                   "2", "--trace-out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        rc = main(["serve", "--n", "40", "--queries", "20", "--workers",
                   "2", "--metrics-out", str(tmp_path / "m.prom")])
        assert rc == 2

    def test_workers_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["serve", "--n", "40", "--workers", "0"])
        assert usage.value.code == 2
        assert "--workers: must be > 0" in capsys.readouterr().err

    def test_sharded_cache_file(self, tmp_path, capsys):
        path = tmp_path / "shard-cache.json"
        base = ["serve", "--n", "40", "--k", "2", "--queries", "80",
                "--workload", "zipf", "--seed", "6",
                "--cache-file", str(path)]
        assert main(base + ["--workers", "2"]) == 0
        capsys.readouterr()
        # The merged cache warms both a sharded and a single-process run.
        assert main(base + ["--workers", "2"]) == 0
        assert "hit_rate=100.0%" in capsys.readouterr().out
        assert main(base) == 0
        assert "hit_rate=100.0%" in capsys.readouterr().out
