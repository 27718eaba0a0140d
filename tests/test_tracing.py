"""Tests for ``repro.tracing`` — sampled per-query tracing (S19).

The tracing layer's contract has four legs, each pinned here:

* **non-interference** — serving with a tracer attached returns
  byte-identical results and report statistics to serving without one,
  on every workload family (the trace is a *replay*, never inline);
* **determinism** — head sampling is a pure function of (rate, seed),
  and the tail buffer's eviction tie-breaks come from an injected rng,
  so a fixed seed pins the retained set exactly;
* **tail retention** — the tail buffer provably keeps the true
  worst-stretch query and every failure, whatever the offer order;
* **exact attribution** — per-level stretch attribution sums to
  (actual − optimal) *exactly* (closed form, not a float residual), and
  per-hop excesses telescope to the same total.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.graphs import random_connected_graph
from repro.graphs.paths import dijkstra
from repro.serve import ServeEngine, compile_scheme, run_serving
from repro.tracing import (
    HopSpan,
    QueryTrace,
    TailBuffer,
    Tracer,
    attribute,
    per_level_table,
    read_traces_jsonl,
    replay_query,
    run_explain,
    select_traces,
    write_traces_jsonl,
)
from repro.tz import build_centralized_scheme

WORKLOADS = ("uniform", "zipf", "gravity", "adversarial")


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(90, seed=11)
    scheme = build_centralized_scheme(graph, 2, seed=11)
    return graph, scheme


@pytest.fixture(scope="module")
def compiled(built):
    graph, scheme = built
    return compile_scheme(scheme, graph)


def serve_traced(built, *, workload="uniform", queries=400, rate=0.05,
                 seed=11, **tracer_kwargs):
    graph, scheme = built
    tracer = Tracer(rate=rate, seed=seed, prefix=f"{workload}-{seed}",
                    **tracer_kwargs)
    report, results = run_serving(scheme, graph, workload=workload,
                                  queries=queries, seed=seed, tracer=tracer)
    return report, results, tracer


# ---------------------------------------------------------------------------
# Non-interference: tracing on/off is byte-identical
# ---------------------------------------------------------------------------

class TestNonInterference:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_results_and_report_identical(self, built, workload):
        graph, scheme = built
        plain_report, plain_results = run_serving(
            scheme, graph, workload=workload, queries=300, seed=5)
        report, results, tracer = serve_traced(
            built, workload=workload, queries=300, seed=5, rate=0.1)

        def key(r):
            return (r.source, r.target, r.ok, tuple(r.path), r.length,
                    r.error, r.cached)

        assert [key(r) for r in results] == [key(r) for r in plain_results]
        for field in ("workload", "queries", "failures", "hops_p50",
                      "hops_p99", "hops_max", "cache_hit_rate",
                      "slo_fraction"):
            assert getattr(report, field) == getattr(plain_report, field)
        assert report.traces and not plain_report.traces

    def test_route_recorded_sampling(self, compiled):
        engine = ServeEngine(compiled, tracer=Tracer(rate=1.0, seed=0))
        nodes = list(compiled.nodes)
        r = engine.route_recorded(nodes[0], nodes[-1])
        # Single-query picks materialize at finalize, like batched ones.
        assert engine.tracer.head == [] and len(engine.tracer.pending) == 1
        [trace] = engine.tracer.finalize(engine, [r])
        assert engine.tracer.head == [trace] and trace.via == "head"
        assert trace.source == r.source and trace.target == r.target
        assert trace.ok == r.ok and trace.length == r.length
        assert [h.dest for h in trace.hops] == r.path[1:]


# ---------------------------------------------------------------------------
# Head sampling determinism
# ---------------------------------------------------------------------------

#: Stand-in query keys: ``record_picks`` reads only their count and order.
KEYS = [(i, -i) for i in range(1000)]

#: Ordinals ``Tracer(rate=0.05, seed=3)`` head-samples among the first
#: 1,000 queries (taken from the per-query sampler this one replaced).
PIN_0_05_SEED_3 = [
    5, 21, 31, 50, 70, 72, 73, 109, 115, 121, 227, 240, 276, 289, 309, 313,
    333, 373, 388, 415, 437, 439, 467, 485, 492, 493, 533, 546, 571, 613,
    638, 688, 698, 730, 742, 796, 838, 840, 843, 848, 914, 926, 946, 953,
    967, 977, 986,
]


def picked(tracer, keys, cuts=()):
    """Ordinals ``tracer`` picks over ``keys`` handed over in calls split
    at ``cuts``; each pick must name its own key."""
    bounds = [0, *cuts, len(keys)]
    for lo, hi in zip(bounds, bounds[1:]):
        tracer.record_picks(keys[lo:hi])
    assert all((s, t) == keys[o] for o, s, t in tracer.pending)
    return [ordinal for ordinal, _, _ in tracer.pending]


class TestHeadSampling:
    @given(rate=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**31),
           cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_deterministic_under_fixed_seed(self, rate, seed, cut):
        a = Tracer(rate=rate, seed=seed)
        b = Tracer(rate=rate, seed=seed)
        assert picked(a, KEYS[:200]) == picked(b, KEYS[:200], (cut,))
        assert a.seq == b.seq == 200

    def test_rate_zero_never_samples_and_counts(self):
        tracer = Tracer(rate=0.0, seed=3)
        assert picked(tracer, KEYS[:100], (1, 40)) == []
        assert tracer.seq == 100

    def test_rate_one_always_samples(self):
        tracer = Tracer(rate=1.0, seed=3)
        assert picked(tracer, KEYS[:50], (1, 2, 30)) == list(range(50))

    def test_trace_ids_are_ordinal(self):
        tracer = Tracer(rate=0.5, seed=0, prefix="zipf-7")
        assert tracer.trace_id(0) == "zipf-7-000000"
        assert tracer.trace_id(123) == "zipf-7-000123"

    def test_head_limit_drops_excess(self, compiled):
        engine = ServeEngine(compiled)
        tracer = Tracer(rate=1.0, seed=0, head_limit=3)
        nodes = list(compiled.nodes)
        tracer.record_picks([(nodes[0], v) for v in nodes[1:4]])
        tracer.record_picks([(nodes[0], v) for v in nodes[4:9]])
        assert [o for o, _, _ in tracer.pending] == [0, 1, 2]
        assert tracer.head_dropped == 5 and tracer.seq == 8
        assert [t.target for t in tracer.finalize(engine, [])] == nodes[1:4]
        assert len(tracer.head) == 3 and tracer.pending == []

    def test_picks_pinned_however_the_stream_is_served(self, compiled):
        nodes = list(compiled.nodes)
        pairs = [(nodes[i % len(nodes)], nodes[(7 * i + 1) % len(nodes)])
                 for i in range(1000)]

        def pinned(serve):
            engine = ServeEngine(compiled, tracer=Tracer(rate=0.05, seed=3))
            serve(engine)
            assert engine.tracer.seq == 1000
            return [o for o, _, _ in engine.tracer.pending]

        assert picked(Tracer(rate=0.05, seed=3), KEYS) == PIN_0_05_SEED_3
        assert pinned(lambda e: e.route_many(pairs)) == PIN_0_05_SEED_3
        assert pinned(lambda e: [e.route_many(pairs[lo:hi]) for lo, hi in
                                 ((0, 1), (1, 400), (400, 1000))]) \
            == PIN_0_05_SEED_3
        assert pinned(lambda e: [e.route_recorded(u, v) for u, v in pairs]) \
            == PIN_0_05_SEED_3

    @pytest.mark.parametrize("setting,value,flag", [
        ("rate", 2.0, ["--trace-rate", "2"]),
        ("rate", -1.0, ["--trace-rate", "-1"]),
        ("rate", float("nan"), ["--trace-rate", "nan"]),
        ("tail_limit", -1, ["--trace-tail", "-1"]),
        ("head_limit", -1, None),  # no flag sets it
    ], ids=["rate-2", "rate-negative", "rate-nan", "tail-negative",
            "head-negative"])
    def test_out_of_range_settings_rejected(self, setting, value, flag,
                                            tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(InputError, match=setting):
            Tracer(**{setting: value})
        if flag is None:
            return
        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as usage:
            main(["serve", "--n", "60", "--k", "2", "--queries", "200",
                  "--trace-out", str(out), *flag])
        assert usage.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag[0]}: must be" in err.splitlines()[-1]
        assert "Traceback" not in err and not out.exists()


# ---------------------------------------------------------------------------
# Tail buffer: worst retention + injected tie-break rng
# ---------------------------------------------------------------------------

class TestTailBuffer:
    @given(st.lists(st.floats(min_value=1.0, max_value=50.0,
                              allow_nan=False), min_size=1, max_size=64),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_always_retains_true_worst(self, stretches, limit):
        buf = TailBuffer(limit=limit, seed=0)
        for i, s in enumerate(stretches):
            buf.offer(i, f"s{i}", f"t{i}", s)
        worst_value = max(stretches)
        retained = {e.ordinal for e in buf.worst()}
        # Some ordinal achieving the max stretch must survive eviction.
        assert any(stretches[o] == worst_value for o in retained)
        assert len(buf) == min(limit, len(stretches))

    def test_failures_outrank_any_stretch(self):
        buf = TailBuffer(limit=2, seed=0)
        buf.offer(0, "a", "b", 100.0)
        buf.offer(1, "c", "d", None, failed=True)
        buf.offer(2, "e", "f", 99.0)
        entries = buf.worst()
        assert entries[0].failed and entries[0].ordinal == 1
        assert math.isinf(entries[0].key)

    def test_none_stretch_not_retained_unless_failed(self):
        buf = TailBuffer(limit=4, seed=0)
        assert not buf.offer(0, "a", "b", None)
        assert buf.offer(1, "a", "b", None, failed=True)
        assert len(buf) == 1

    def test_worst_is_sorted_descending(self):
        buf = TailBuffer(limit=8, seed=0)
        for i, s in enumerate([3.0, 1.0, 7.0, 5.0]):
            buf.offer(i, f"s{i}", f"t{i}", s)
        assert [e.key for e in buf.worst()] == [7.0, 5.0, 3.0, 1.0]
        assert [e.key for e in buf.worst(2)] == [7.0, 5.0]

    def test_tie_breaks_pinned_by_seed(self):
        # Satellite bugfix regression: eviction among equal-stretch
        # offers must come from the injected rng, so a fixed seed pins
        # the retained set exactly (and a different seed moves it).
        def retained(seed):
            buf = TailBuffer(limit=4, seed=seed)
            for i in range(32):
                buf.offer(i, f"s{i}", f"t{i}", 2.0)
            return sorted(buf.ordinals())

        assert retained(42) == [6, 18, 24, 28]
        assert retained(42) == retained(42)
        assert retained(7) == [13, 17, 20, 22]

    def test_injected_rng_wins_over_seed(self):
        import random
        a = TailBuffer(limit=4, rng=random.Random(99), seed=0)
        b = TailBuffer(limit=4, rng=random.Random(99), seed=12345)
        for i in range(32):
            a.offer(i, "s", "t", 2.0)
            b.offer(i, "s", "t", 2.0)
        assert sorted(a.ordinals()) == sorted(b.ordinals())


# ---------------------------------------------------------------------------
# Replay + exact attribution
# ---------------------------------------------------------------------------

class TestAttribution:
    def test_attribution_sums_exactly(self, built):
        report, results, tracer = serve_traced(built, workload="zipf",
                                               queries=600, rate=0.1)
        assert report.traces
        for trace in report.traces:
            assert trace.ok
            assert trace.attribution is not None
            # Closed form: the committed level's bucket IS the excess.
            assert sum(trace.attribution.values()) == \
                trace.length - trace.optimal
            assert trace.phases is not None
            assert math.isclose(
                trace.phases["ascent"] + trace.phases["descent"],
                trace.length - trace.optimal, abs_tol=1e-9)

    def test_hop_excesses_telescope(self, built):
        graph, _ = built
        report, _, _ = serve_traced(built, queries=400, rate=0.1)
        for trace in report.traces:
            if not trace.ok or not trace.hops:
                continue
            assert all(h.excess is not None for h in trace.hops)
            assert math.isclose(sum(h.excess for h in trace.hops),
                                trace.length - trace.optimal,
                                abs_tol=1e-9)

    def test_replay_matches_engine_result(self, built, compiled):
        graph, _ = built
        engine = ServeEngine(compiled, cache_size=0)
        nodes = sorted(compiled.nodes)
        for u, v in zip(nodes[:20], reversed(nodes[:40:2])):
            r = engine.route_recorded(u, v)
            trace = replay_query(engine, u, v, trace_id="x")
            assert trace.ok == r.ok
            assert trace.length == r.length
            assert [h.dest for h in trace.hops] == r.path[1:]
            assert trace.level == \
                compiled.decisions[v][trace.candidate_index][2]

    def test_self_query_trace(self, built, compiled):
        engine = ServeEngine(compiled)
        node = next(iter(compiled.nodes))
        trace = replay_query(engine, node, node)
        assert trace.ok and trace.hops == [] and trace.length == 0.0
        attribute(built[0], trace)
        assert trace.optimal == 0.0 and trace.stretch == 1.0
        assert sum(trace.attribution.values()) == 0.0

    def test_failed_queries_traced_with_forensics(self, built, compiled):
        graph, _ = built
        engine = ServeEngine(compiled, cache_size=0, max_hops=1)
        tracer = Tracer(rate=0.0, seed=0)
        nodes = sorted(compiled.nodes)
        pairs = [(u, v) for u in nodes[:10] for v in nodes[-5:] if u != v]
        results = engine.route_many(pairs)
        failed = [r for r in results if not r.ok]
        assert failed, "max_hops=1 must force budget failures"
        traces = tracer.finalize(engine, results, graph=graph)
        bad = [t for t in traces if not t.ok]
        assert bad, "tail buffer must retain failures"
        for t in bad:
            assert t.error
            assert t.via == "tail"
            assert not t.attribution  # no committed route to blame
            assert len(t.hops) >= 1  # forensic partial walk


# ---------------------------------------------------------------------------
# finalize: two-tier merge
# ---------------------------------------------------------------------------

class TestFinalize:
    def test_tail_merges_with_head_and_dedupes(self, built):
        graph, scheme = built
        tracer = Tracer(rate=1.0, seed=0, tail_limit=4, head_limit=1024)
        report, results = run_serving(scheme, graph, workload="uniform",
                                      queries=200, seed=9, tracer=tracer)
        ids = [t.trace_id for t in report.traces]
        assert len(ids) == len(set(ids)), "head∩tail must not duplicate"
        # Every tail-retained ordinal appears, marked as tail-reachable.
        tail_ids = {tracer.trace_id(e.ordinal) for e in tracer.tail.worst()}
        assert tail_ids, "the tail keeps the worst queries of the run"
        by_id = {t.trace_id: t for t in report.traces}
        assert tail_ids <= set(ids)
        for tid in tail_ids:
            assert by_id[tid].via in ("tail", "head+tail")

    def test_trace_ordinals_align_with_results(self, built):
        report, results, tracer = serve_traced(built, queries=300, rate=0.2)
        for trace in report.traces:
            ordinal = int(trace.trace_id.rsplit("-", 1)[1])
            r = results[ordinal]
            assert (trace.source, trace.target) == (r.source, r.target)

    def test_worst_stretch_query_always_traced(self, built):
        graph, scheme = built
        report, results, tracer = serve_traced(
            built, workload="adversarial", queries=300, rate=0.0)
        # rate 0: only the tail keeps traces — the worst query must be in.
        dists = {}
        worst, worst_i = -1.0, None
        for i, r in enumerate(results):
            if not r.ok:
                continue
            if r.source not in dists:
                dists[r.source], _ = dijkstra(graph, [r.source])
            exact = dists[r.source].get(r.target, 0.0)
            stretch = r.length / exact if exact > 0 else 1.0
            if stretch > worst:
                worst, worst_i = stretch, i
        traced = {int(t.trace_id.rsplit("-", 1)[1]) for t in report.traces}
        assert worst_i in traced


# ---------------------------------------------------------------------------
# Export: JSONL round-trip
# ---------------------------------------------------------------------------

class TestExport:
    def test_jsonl_round_trip(self, built, tmp_path):
        report, _, _ = serve_traced(built, queries=300, rate=0.1)
        path = write_traces_jsonl(tmp_path / "t.jsonl", report.traces)
        loaded = read_traces_jsonl(path)
        assert [QueryTrace.from_dict(d).to_dict() for d in loaded] == \
            [t.to_dict() for t in report.traces]

    @pytest.mark.parametrize("damage,said", [
        ('{"trace_id": "q-0000', "not valid JSON"),    # truncated mid-write
        ('["q-000002", "a", "z"]', "not a query trace"),  # JSON, not an object
        ('{"bad": 1}', "not a query trace"),           # an object, not a trace
    ], ids=["truncated", "list", "no-trace-id"])
    def test_damaged_jsonl_fails_typed(self, damage, said, tmp_path, capsys):
        """A damaged line is an ``InputError`` naming the file and the
        1-based line -- not a raw ``JSONDecodeError`` / ``AttributeError``,
        and not an empty trace that explains as attribution-exact PASS --
        and ``repro explain`` reports it in one line and exits 2."""
        from repro.__main__ import main

        path = tmp_path / "t.jsonl"
        good = json.dumps(QueryTrace("q-000001", "a", "z").to_dict())
        path.write_text(f"{good}\n\n{damage}\n")
        with pytest.raises(InputError, match=said) as err:
            read_traces_jsonl(path)
        assert f"{path} line 3" in str(err.value)
        assert main(["explain", "--traces", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro explain: {err.value}\n"

    def test_line_with_a_source_rule_mode_still_loads(self, built, tmp_path,
                                                      capsys):
        """Traces used to carry ``"mode"`` (``"first"`` or ``"best"``); a
        file written then still loads and explains, the key ignored."""
        from repro.__main__ import main

        report, _, _ = serve_traced(built, queries=300, rate=0.1)
        path = tmp_path / "old.jsonl"
        path.write_text("".join(
            json.dumps({**t.to_dict(), "mode": "best"}) + "\n"
            for t in report.traces))
        loaded = [QueryTrace.from_dict(d) for d in read_traces_jsonl(path)]
        assert [t.to_dict() for t in loaded] == \
            [t.to_dict() for t in report.traces]
        assert not any(hasattr(t, "mode") for t in loaded)
        assert main(["explain", "--traces", str(path), "--worst", "1"]) == 0
        assert "mode" not in capsys.readouterr().out

    def test_dict_round_trip_preserves_hops(self):
        trace = QueryTrace("q-000001", "a", "z", via="tail")
        trace.hops = [HopSpan(0, "a", "b", "parent", 1.5, 0.25)]
        trace.ok = True
        trace.level = 1
        trace.attribution = {"1": 0.25}
        again = QueryTrace.from_dict(trace.to_dict())
        assert again.to_dict() == trace.to_dict()
        assert again.hops[0].excess == 0.25


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

class TestExplain:
    @pytest.fixture(scope="class")
    def trace_dicts(self, built):
        report, _, _ = serve_traced(built, workload="zipf", queries=600,
                                    rate=0.1)
        return [t.to_dict() for t in report.traces]

    def test_select_by_trace_id(self, trace_dicts):
        wanted = trace_dicts[3]["trace_id"]
        selected = select_traces(trace_dicts, trace_id=wanted)
        assert [t["trace_id"] for t in selected] == [wanted]

    def test_select_unknown_id_raises(self, trace_dicts):
        with pytest.raises(InputError, match="not found"):
            select_traces(trace_dicts, trace_id="nope-999999")

    def test_select_worst_ranks_by_excess(self, trace_dicts):
        worst = select_traces(trace_dicts, worst=5)
        excesses = [t["length"] - t["optimal"] for t in worst]
        assert excesses == sorted(excesses, reverse=True)
        assert len(worst) == 5

    def test_per_level_table_aggregates(self, trace_dicts):
        rows = per_level_table(trace_dicts)
        assert rows
        total = sum(r["excess"] for r in rows)
        expected = sum(t["length"] - t["optimal"] for t in trace_dicts
                       if t["ok"])
        # Rows round to 6 decimals for display; the per-trace exactness
        # verdict (residual == 0) is asserted elsewhere.
        assert math.isclose(total, expected, abs_tol=1e-5)
        assert sum(r["queries"] for r in rows) == \
            sum(1 for t in trace_dicts if t["ok"])

    def test_run_explain_record_and_verdict(self, trace_dicts):
        text, record = run_explain(trace_dicts, worst=3, source="t.jsonl")
        assert record.kind == "explain"
        assert record.passed
        [verdict] = record.verdicts
        assert verdict.name == "explain/attribution-exact"
        assert verdict.measured == 0.0 and verdict.limit == 0.0
        assert len(record.traces) == 3
        assert "attribution-exact" in text and "[PASS]" in text
        # RunRecord round-trip keeps the traces section.
        from repro.telemetry import RunRecord
        again = RunRecord.from_dict(record.to_dict())
        assert again.traces == record.traces

    def test_run_explain_empty_raises(self):
        with pytest.raises(InputError):
            run_explain([])
