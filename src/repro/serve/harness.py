"""S16 serving harness: run a workload against a scheme, report SLOs.

``run_serving`` compiles a scheme, generates a seeded workload, serves it
through the batched engine, and reports what a serving tier is judged on:
throughput (queries/s), per-query hop and latency percentiles, cache hit
rate, the count-and-continue failure tally, and a **stretch-SLO verdict**
-- the fraction of queries delivered within the paper's stretch bound
(``4k-3`` for Theorem 3 schemes), attached as a
:class:`~repro.telemetry.bounds.BoundVerdict` so ``--strict`` runs treat it
like every other paper bound.

``ServeReport.to_run_record`` says what the run's
:class:`~repro.telemetry.RunRecord` holds; ``repro serve`` runs under
:func:`~repro.telemetry.record_run`, which adds spans and counters.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx

from ..graphs.paths import Adjacency, dijkstra
from ..metrics.serve import ServeMetrics, exemplar_payload, path_length_counts

if TYPE_CHECKING:  # pragma: no cover
    from ..tracing.model import QueryTrace
    from ..tracing.sampler import Tracer
from ..metrics.sketch import QuantileSketch
from ..telemetry import events as _tele
from ..telemetry.bounds import BoundVerdict
from ..telemetry.runrecord import RunRecord, make_run_record
from .compile import CompiledGraphScheme, Scheme, _jsonable_summary, compile_scheme
from .engine import RouteBatch, ServeEngine, ServeResult
from .workloads import make_workload

NodeId = Hashable

#: Relative accuracy of the harness percentile sketches.  0.005 keeps
#: integer hop percentiles *exact* after rounding for paths under 100
#: hops (``alpha * h < 0.5``), so the golden-pinned ``hops_p50``/``hops_p99``
#: columns cannot drift.
SKETCH_ACCURACY = 0.005


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of a non-empty sequence.

    The exact reference implementation: report percentiles are computed
    through :class:`~repro.metrics.sketch.QuantileSketch` (one pass, no
    sort), and the differential tests check the sketch against this
    function within the configured relative error.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ServeReport:
    """Everything one serving run is judged on."""

    workload: str
    queries: int
    seed: int
    mode: str
    cache_size: int
    #: wall-clock columns are measurements of *this machine at this
    #: moment*, not of routing behavior — excluded from equality so two
    #: reports compare on what they computed, which is also what makes
    #: the merged N-shard report field-identical to the 1-process one.
    compile_s: float = field(compare=False)
    serve_s: float = field(compare=False)
    throughput_qps: float = field(compare=False)
    hops_p50: float
    hops_p90: float
    hops_p99: float
    hops_max: float
    latency_us_p50: float = field(compare=False)
    latency_us_p90: float = field(compare=False)
    latency_us_p99: float = field(compare=False)
    cache_hit_rate: float
    failures: int
    slo_bound: Optional[float] = None
    slo_fraction: Optional[float] = None
    slo_target: Optional[float] = None
    #: raw LRU counters behind ``cache_hit_rate`` — summable across
    #: shards where the rounded rate is not (S20 merge).
    cache_hits: int = 0
    cache_misses: int = 0
    #: raw count behind ``slo_fraction`` (queries within the bound),
    #: summable across shards.
    slo_within: Optional[int] = None
    #: shard count for merged reports (None for single-process runs);
    #: excluded from equality so merged == single-process holds.
    shards: Optional[int] = field(default=None, compare=False)
    packed: Dict[str, Any] = field(default_factory=dict)
    #: per-distribution quantile sketches ("hops", "latency_us", and
    #: "stretch" when the SLO ran) -- the source of the report's
    #: percentile columns, queryable at any rank via ``quantiles()``.
    sketches: Dict[str, QuantileSketch] = field(
        default_factory=dict, repr=False, compare=False)
    #: live-metrics snapshot (populated when ``run_serving`` is given a
    #: :class:`~repro.metrics.ServeMetrics` bundle).
    metrics: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False)
    #: sampled query traces (populated when ``run_serving`` is given a
    #: :class:`~repro.tracing.Tracer`); excluded from ``to_row()`` and
    #: report equality so tracing cannot perturb differential checks.
    traces: List["QueryTrace"] = field(
        default_factory=list, repr=False, compare=False)
    #: worst-stretch exemplars (``Histogram.exemplars()`` payloads,
    #: worst-first) when a metrics bundle fed the stretch histogram;
    #: compared through :func:`ServeReport.merge`'s deterministic
    #: re-heapify, not dataclass equality (heap tie-order is
    #: arrival-dependent at the reservoir boundary).
    exemplars: List[Dict[str, Any]] = field(
        default_factory=list, repr=False, compare=False)
    #: per-worker rows of a sharded run (the RunRecord ``shards``
    #: section, :func:`repro.shard.report.shards_section`); empty for
    #: single-process runs.
    shard_rows: List[Dict[str, Any]] = field(
        default_factory=list, repr=False, compare=False)

    @property
    def slo_ok(self) -> Optional[bool]:
        if self.slo_fraction is None or self.slo_target is None:
            return None
        return self.slo_fraction >= self.slo_target

    def quantiles(self, name: str = "latency_us",
                  qs: Sequence[float] = (0.5, 0.9, 0.99)) -> List[float]:
        """Arbitrary-rank quantiles of a recorded distribution.

        ``name`` is one of the ``sketches`` keys (``"hops"``,
        ``"latency_us"``, or ``"stretch"`` on SLO-checked runs); each
        estimate is within :data:`SKETCH_ACCURACY` relative error.
        """
        sketch = self.sketches.get(name)
        if sketch is None:
            raise KeyError(
                f"no {name!r} sketch (have {sorted(self.sketches)})")
        return sketch.quantiles(qs)

    def to_row(self) -> Dict[str, Any]:
        """One flat, JSON-ready row (RunRecord column / bench twin)."""
        row = {
            "workload": self.workload,
            "queries": self.queries,
            "seed": self.seed,
            "mode": self.mode,
            "cache_size": self.cache_size,
            "compile_s": round(self.compile_s, 4),
            "serve_s": round(self.serve_s, 4),
            "throughput_qps": round(self.throughput_qps, 1),
            "hops_p50": self.hops_p50,
            "hops_p90": self.hops_p90,
            "hops_p99": self.hops_p99,
            "hops_max": self.hops_max,
            "latency_us_p50": round(self.latency_us_p50, 2),
            "latency_us_p90": round(self.latency_us_p90, 2),
            "latency_us_p99": round(self.latency_us_p99, 2),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "failures": self.failures,
        }
        if self.slo_fraction is not None:
            row["slo_bound"] = round(self.slo_bound, 4)
            row["slo_fraction"] = round(self.slo_fraction, 4)
            row["slo_target"] = self.slo_target
            row["slo_ok"] = self.slo_ok
        if self.shards is not None:
            row["shards"] = self.shards
        row.update(self.packed)
        return row

    def to_run_record(self) -> RunRecord:
        """The ``serve`` manifest of this run (with its ``shards``
        section when the report was merged from a sharded run)."""
        verdict = slo_verdict(self)
        return make_run_record(
            "serve",
            workload={
                "workload": self.workload,
                "queries": self.queries,
                "seed": self.seed,
                "mode": self.mode,
                "cache_size": self.cache_size,
            },
            columns=[self.to_row()],
            verdicts=[verdict] if verdict is not None else [],
            metrics=self.metrics,
            traces=[t.to_dict() for t in self.traces],
            shards=self.shard_rows,
        )

    def render(self) -> str:
        lines = [
            f"workload={self.workload} queries={self.queries} "
            f"seed={self.seed} mode={self.mode}",
            f"throughput    {self.throughput_qps:>12.0f} queries/s "
            f"(serve {self.serve_s:.3f}s, compile {self.compile_s:.3f}s)",
            f"hops          p50={self.hops_p50:.0f} p90={self.hops_p90:.0f} "
            f"p99={self.hops_p99:.0f} max={self.hops_max:.0f}",
            f"latency (us)  p50={self.latency_us_p50:.1f} "
            f"p90={self.latency_us_p90:.1f} p99={self.latency_us_p99:.1f}",
            f"cache         size={self.cache_size} "
            f"hit_rate={self.cache_hit_rate:.1%}",
            f"failures      {self.failures} (count-and-continue)",
        ]
        if self.slo_fraction is not None:
            status = "PASS" if self.slo_ok else "FAIL"
            lines.append(
                f"stretch SLO   {self.slo_fraction:.2%} of queries within "
                f"{self.slo_bound:.3g}x (target {self.slo_target:.0%}): "
                f"{status}"
            )
        if self.shards is not None:
            lines.insert(1, f"shards        {self.shards} workers "
                            "(merged report)")
        return "\n".join(lines)

    @classmethod
    def merge(cls, reports: Sequence["ServeReport"],
              *, exemplar_limit: Optional[int] = None) -> "ServeReport":
        """Merge per-shard reports into the exact whole-stream report.

        Every field is combined by its own algebra so the merged N-shard
        report **equals** the 1-process report on the same stream:

        * counters (``queries``/``failures``/``cache_hits``/
          ``cache_misses``/``slo_within``) sum;
        * percentile columns recompute from the bucket-exact
          :meth:`QuantileSketch.merge` of the shard sketches (hop
          sketches of shards with zero delivered queries are skipped —
          their single ``0`` is the empty-run sentinel, which the merged
          sketch re-adds only if *no* shard delivered);
        * ``cache_hit_rate`` / ``slo_fraction`` recompute from the summed
          raw counters (rounding first would not be order-insensitive);
        * exemplar reservoirs re-heapify deterministically: worst value
          first, payload JSON as the tie-break, truncated to
          ``exemplar_limit`` (default: the widest shard reservoir);
        * wall-clock fields take the slowest shard (``serve_s`` /
          ``compile_s`` = max) and throughput recomputes as total
          queries over that span (the slowest shard bounds the tier).

        ``serve_s``-derived and latency fields are *report-level* merges;
        they are excluded from dataclass equality already.  Raises
        :class:`~repro.errors.InputError` on an empty list or when shards
        disagree on stream identity (workload/seed/mode/cache/SLO).
        """
        from ..errors import InputError

        reports = list(reports)
        if not reports:
            raise InputError("cannot merge an empty list of shard reports")
        first = reports[0]
        for r in reports[1:]:
            for attr in ("workload", "seed", "mode", "cache_size",
                         "slo_bound", "slo_target"):
                if getattr(r, attr) != getattr(first, attr):
                    raise InputError(
                        f"shard reports disagree on {attr}: "
                        f"{getattr(first, attr)!r} != {getattr(r, attr)!r}")

        queries = sum(r.queries for r in reports)
        failures = sum(r.failures for r in reports)
        cache_hits = sum(r.cache_hits for r in reports)
        cache_misses = sum(r.cache_misses for r in reports)
        lookups = cache_hits + cache_misses

        hops = QuantileSketch(SKETCH_ACCURACY)
        lat = QuantileSketch(SKETCH_ACCURACY)
        for r in reports:
            if "latency_us" in r.sketches:
                lat.merge(r.sketches["latency_us"])
            if "hops" in r.sketches and r.queries - r.failures > 0:
                hops.merge(r.sketches["hops"])
        if hops.count == 0:
            hops.add(0)
        sketches = {"hops": hops, "latency_us": lat}

        stretch: Optional[QuantileSketch] = None
        if any("stretch" in r.sketches for r in reports):
            stretch = QuantileSketch(SKETCH_ACCURACY)
            for r in reports:
                if "stretch" in r.sketches:
                    stretch.merge(r.sketches["stretch"])
            sketches["stretch"] = stretch

        slo_within: Optional[int] = None
        slo_fraction: Optional[float] = None
        if any(r.slo_fraction is not None for r in reports):
            slo_within = sum(r.slo_within or 0 for r in reports)
            slo_fraction = slo_within / queries if queries else 1.0

        combined = [dict(x) for r in reports for x in r.exemplars]
        combined.sort(key=_exemplar_order)
        if exemplar_limit is None:
            exemplar_limit = max(
                (len(r.exemplars) for r in reports), default=0)
        exemplars = combined[:exemplar_limit]

        serve_s = max(r.serve_s for r in reports)
        compile_s = max(r.compile_s for r in reports)
        return cls(
            workload=first.workload,
            queries=queries,
            seed=first.seed,
            mode=first.mode,
            cache_size=first.cache_size,
            compile_s=compile_s,
            serve_s=serve_s,
            throughput_qps=queries / serve_s if serve_s > 0 else 0.0,
            hops_p50=float(round(hops.quantile(0.5))),
            hops_p90=float(round(hops.quantile(0.9))),
            hops_p99=float(round(hops.quantile(0.99))),
            hops_max=float(hops.max_value or 0.0),
            latency_us_p50=lat.quantile(0.5),
            latency_us_p90=lat.quantile(0.9),
            latency_us_p99=lat.quantile(0.99),
            cache_hit_rate=(round(cache_hits / lookups, 4)
                            if lookups else 0.0),
            failures=failures,
            slo_bound=first.slo_bound,
            slo_fraction=slo_fraction,
            slo_target=first.slo_target if slo_fraction is not None
            else None,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            slo_within=slo_within,
            shards=len(reports),
            packed=next((dict(r.packed) for r in reports if r.packed), {}),
            sketches=sketches,
            metrics={},
            traces=[t for r in reports for t in r.traces],
            exemplars=exemplars,
        )


def _exemplar_order(x: Dict[str, Any]) -> Tuple[float, str]:
    """Deterministic worst-first exemplar ordering (value, then payload).

    The JSON tie-break makes the merged reservoir independent of shard
    ordering even when two exemplars share a stretch value exactly.
    """
    value = float(x.get("value", 0.0))
    rest = {k: v for k, v in x.items() if k != "value"}
    return (-value, json.dumps(rest, sort_keys=True, default=repr))


def slo_verdict(report: ServeReport) -> Optional[BoundVerdict]:
    """The stretch-SLO as a standard bound verdict (None without SLO data)."""
    if report.slo_fraction is None:
        return None
    return BoundVerdict(
        name=f"serve/{report.workload}/stretch-slo",
        column="slo_fraction",
        formula=(f"frac(stretch <= {report.slo_bound:.3g}) "
                 f">= {report.slo_target}"),
        measured=round(report.slo_fraction, 4),
        limit=report.slo_target,
        passed=bool(report.slo_ok),
    )


def run_serving(
    scheme: Scheme,
    graph: nx.Graph,
    *,
    workload: str = "uniform",
    queries: int = 1000,
    seed: int = 0,
    mode: str = "first",
    cache_size: int = 4096,
    zipf_alpha: float = 1.1,
    slo_bound: Optional[float] = None,
    slo_target: float = 0.99,
    engine: Optional[ServeEngine] = None,
    metrics: Optional[ServeMetrics] = None,
    tracer: Optional["Tracer"] = None,
) -> Tuple[ServeReport, RouteBatch]:
    """Serve ``queries`` seeded queries of ``workload`` against ``scheme``.

    ``slo_bound`` defaults to the paper's ``4k-3`` for graph schemes (the
    SLO is skipped for tree schemes, whose tree routing is exact).  Pass a
    prebuilt ``engine`` to serve with a warm cache; by default the run
    compiles fresh and starts cold.  Pass a
    :class:`~repro.metrics.ServeMetrics` bundle to emit into the live
    registry (counters, QPS meter, hop/latency/stretch histograms with
    worst-stretch exemplars, SLO budget); the report then carries the
    registry snapshot in its ``metrics`` section.  Pass a
    :class:`~repro.tracing.Tracer` to sample per-query traces (S19): the
    head tier fires during serving, the tail tier is fed post-hoc from
    the measured stretches, and the finished traces — with exact
    per-level stretch attribution — land in ``report.traces``.
    """
    with _tele.span("serve/run", workload=workload, queries=queries):
        started = time.perf_counter()
        if engine is None:
            compiled = compile_scheme(scheme, graph)
            engine = ServeEngine(compiled, mode=mode, cache_size=cache_size,
                                 metrics=metrics, tracer=tracer)
        else:
            compiled = engine.compiled
            mode = engine.mode
        compile_s = time.perf_counter() - started

        with _tele.span("serve/workload", workload=workload):
            pairs = make_workload(
                workload, graph, compiled.nodes, queries, seed,
                zipf_alpha=zipf_alpha,
                route_length=_route_length_probe(compiled, graph, mode),
            )
        return serve_pairs(
            engine, graph, pairs,
            workload=workload, seed=seed, compile_s=compile_s,
            slo_bound=slo_bound, slo_target=slo_target,
            metrics=metrics, tracer=tracer,
        )


def serve_pairs(
    engine: ServeEngine,
    graph: nx.Graph,
    pairs: Sequence[Tuple[NodeId, NodeId]],
    *,
    workload: str = "pairs",
    seed: int = 0,
    compile_s: float = 0.0,
    slo: bool = True,
    slo_bound: Optional[float] = None,
    slo_target: float = 0.99,
    metrics: Optional[ServeMetrics] = None,
    tracer: Optional["Tracer"] = None,
) -> Tuple[ServeReport, RouteBatch]:
    """Serve an explicit pair stream through ``engine`` and report.

    The measurement core of :func:`run_serving`, split out so shard
    workers (:mod:`repro.shard.worker`) run the *identical* code path on
    their partition of the stream — same timing structure, same sketch
    accuracy, same SLO algebra — which is what makes the merged N-shard
    report equal to the 1-process one.  ``slo=False`` skips stretch
    scoring entirely (the scaling bench measures raw throughput);
    otherwise ``slo_bound`` defaults to the paper's ``4k-3`` for graph
    schemes exactly like :func:`run_serving`.  The second element is the
    engine's :class:`~repro.serve.engine.RouteBatch`; everything here
    reads its columns, and builds a result only for an exemplar.
    """
    compiled = engine.compiled
    mode = engine.mode
    cache_size = engine.cache.maxsize
    if metrics is not None and engine.metrics is None:
        engine.metrics = metrics
    elif metrics is None:
        metrics = engine.metrics
    if tracer is not None and engine.tracer is None:
        engine.tracer = tracer
    elif tracer is None:
        tracer = engine.tracer
    # Results[i] gets trace ordinal trace_base + i (a pre-warmed
    # engine may already have consumed ordinals).
    trace_base = tracer.seq if tracer is not None else 0

    # The batched loop is its own stopwatch: one clock reading per query
    # boundary into a flat buffer (8 bytes a query), so the measured
    # pass is `route_many` plus a clock call, not a Python call chain
    # per query.  Query i's service time is the gap between readings i
    # and i + 1.
    perf_counter = time.perf_counter
    boundaries = array("d")
    with _tele.span("serve/queries", count=len(pairs)):
        serve_started = perf_counter()
        results = engine.route_many(pairs, boundaries)
        serve_s = perf_counter() - serve_started
    latencies_us = array("d", (
        (done - began) * 1e6
        for began, done in zip(boundaries, islice(boundaries, 1, None))))
    lat_sketch = QuantileSketch(SKETCH_ACCURACY)
    lat_sketch.add_many(latencies_us)
    if metrics is not None:
        observe = metrics.observe_query
        for latency_us, done in zip(latencies_us,
                                    islice(boundaries, 1, None)):
            observe(latency_us, done - serve_started)
    _tele.emit("serve.queries", len(results))
    _tele.emit("serve.failures", engine.failures)

    if (slo and slo_bound is None
            and isinstance(compiled, CompiledGraphScheme)):
        slo_bound = 4.0 * compiled.k - 3.0
    slo_fraction = None
    slo_within: Optional[int] = None
    stretches: Optional[List[Optional[float]]] = None
    stretch_sketch: Optional[QuantileSketch] = None
    if slo and slo_bound is not None:
        with _tele.span("serve/slo", bound=slo_bound):
            stretches = _per_query_stretch(graph, results)
        slo_within = sum(1 for s in stretches
                         if s is not None and s <= slo_bound + 1e-9)
        slo_fraction = slo_within / len(results) if results else 1.0
        stretch_sketch = QuantileSketch(SKETCH_ACCURACY)
        for s in stretches:
            if s is not None:
                stretch_sketch.add(s)
        if metrics is not None:
            _feed_stretch_metrics(metrics, results, stretches,
                                  slo_bound, serve_s,
                                  tracer=tracer, base=trace_base)

    traces: List["QueryTrace"] = []
    if tracer is not None:
        with _tele.span("serve/traces",
                        head=len(tracer.head) + len(tracer.pending)):
            traces = tracer.finalize(engine, results, stretches,
                                     graph=graph, base=trace_base)
        _tele.emit("serve.traces", len(traces))

    hops_sketch = QuantileSketch(SKETCH_ACCURACY)
    for path_length, count in path_length_counts(results).items():
        hops_sketch.add(path_length - 1, count)
    if hops_sketch.count == 0:
        hops_sketch.add(0)
    sketches = {"hops": hops_sketch, "latency_us": lat_sketch}
    if stretch_sketch is not None:
        sketches["stretch"] = stretch_sketch
    stats = engine.stats()
    report = ServeReport(
        workload=workload,
        queries=len(results),
        seed=seed,
        mode=mode,
        cache_size=cache_size,
        compile_s=compile_s,
        serve_s=serve_s,
        throughput_qps=len(results) / serve_s if serve_s > 0 else 0.0,
        # Hop percentiles stay exact integers (alpha * hops < 0.5).
        hops_p50=float(round(hops_sketch.quantile(0.5))),
        hops_p90=float(round(hops_sketch.quantile(0.9))),
        hops_p99=float(round(hops_sketch.quantile(0.99))),
        hops_max=float(hops_sketch.max_value or 0.0),
        latency_us_p50=lat_sketch.quantile(0.5),
        latency_us_p90=lat_sketch.quantile(0.9),
        latency_us_p99=lat_sketch.quantile(0.99),
        cache_hit_rate=stats["cache_hit_rate"],
        failures=engine.failures,
        slo_bound=slo_bound if slo else None,
        slo_fraction=slo_fraction,
        slo_target=slo_target if slo_fraction is not None else None,
        cache_hits=stats["cache_hits"],
        cache_misses=stats["cache_misses"],
        slo_within=slo_within,
        packed=_jsonable_summary(compiled),
        sketches=sketches,
        metrics=(metrics.snapshot(now=serve_s)
                 if metrics is not None else {}),
        traces=traces,
        exemplars=(metrics.stretch.exemplars()
                   if metrics is not None else []),
    )
    if slo_fraction is not None:
        _tele.gauge("serve.slo_fraction", slo_fraction)
    return report, results


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _route_length_probe(compiled, graph: nx.Graph, mode: str):
    """A side engine for adversarial mining (None on routing failure).

    Uses its own engine so mining never warms the measured cache.
    """
    probe = ServeEngine(compiled, mode=mode, cache_size=0)

    def route_length(u: NodeId, v: NodeId) -> Optional[float]:
        result = probe.route_recorded(u, v)
        return result.length if result.ok else None

    return route_length


def _per_query_stretch(
    graph: nx.Graph,
    results: Sequence[ServeResult],
) -> List[Optional[float]]:
    """Stretch per query (None for failures, which count as violations),
    one Dijkstra per distinct source like ``measure_stretch``."""
    batch = RouteBatch.of(results)
    keys, lengths, status = batch.keys, batch.lengths, batch.status
    by_source: Dict[NodeId, List[int]] = {}
    for i, key in enumerate(keys):
        by_source.setdefault(key[0], []).append(i)
    out: List[Optional[float]] = [None] * len(keys)
    adj = Adjacency.of(graph)
    for source, indices in by_source.items():
        dist, _ = dijkstra(adj, [source])
        for i in indices:
            if not status[i] & RouteBatch.OK:
                continue
            exact = dist.get(keys[i][1], 0.0)
            out[i] = lengths[i] / exact if exact > 0 else 1.0
    return out


def _feed_stretch_metrics(
    metrics: ServeMetrics,
    batch: RouteBatch,
    stretches: Sequence[Optional[float]],
    slo_bound: float,
    serve_s: float,
    *,
    tracer: Optional["Tracer"] = None,
    base: int = 0,
) -> None:
    """Replay per-query stretch into the live bundle after the fact.

    The serve loop measures latency online but stretch needs the exact
    distances, so the SLO feed happens post-hoc: each query is scored at
    the virtual time it was (approximately) served, spreading the batch
    uniformly over ``serve_s``.  With a tracer active, exemplar payloads
    carry the query's trace id (S19), so a Prometheus exemplar and
    ``repro explain`` point at the same query.  Only the handful of
    queries the exemplar reservoir wants are built as results.
    """
    tick = serve_s / len(batch) if batch else 0.0
    hist = metrics.stretch
    slo = metrics.slo
    for i, stretch in enumerate(stretches):
        now = (i + 1) * tick
        if stretch is not None:
            hist.sketch.add(stretch)
            if hist.wants_exemplar(stretch):
                trace_id = (tracer.trace_id(base + i)
                            if tracer is not None else None)
                hist.offer_exemplar(
                    stretch, exemplar_payload(batch[i], trace_id=trace_id))
        bad = stretch is None or stretch > slo_bound + 1e-9
        slo.record(0.0 if bad else 1.0, 1.0 if bad else 0.0, now)
    metrics.budget_gauge.value = slo.budget_remaining
