"""``repro monitor``: replay a workload under live metrics and SLO watch.

Where ``repro serve`` is a benchmark (run, then report), ``repro
monitor`` is the *operational* view: every query is scored online --
latency into the sketch, stretch against the paper bound via
per-source exact distances, good/bad into the
:class:`~repro.metrics.slo.SloMonitor` -- while a single refreshing
status line shows QPS, tail latency, stretch p99, remaining error
budget, and any firing burn-rate alerts.

Replays finish in milliseconds of wall clock, which would make
time-windowed alerting vacuous, so the monitor drives every windowed
structure with a **virtual clock**: query ``i`` happens at
``(i + 1) / target_qps`` seconds.  A 2000-query replay at the default
1000 virtual QPS therefore spans two virtual seconds of traffic, and an
injected failure burst trips the fast burn-rate arm at the same virtual
timestamp on every host.  The resulting :class:`MonitorReport` and its
RunRecord (kind ``"monitor"``, :meth:`MonitorReport.to_run_record`)
carry the full metrics snapshot, the SLO budget state, and the alert
transition log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, TextIO

import networkx as nx

from ..graphs.paths import Adjacency, dijkstra
from ..telemetry.bounds import BoundVerdict
from ..telemetry.runrecord import RunRecord, make_run_record
from .serve import ServeMetrics, exemplar_payload

NodeId = Hashable

__all__ = ["MonitorReport", "run_monitor"]


@dataclass
class MonitorReport:
    """What one monitored replay observed."""

    workload: str
    queries: int
    seed: int
    target_qps: float
    objective: float
    serve_s: float
    throughput_qps: float
    failures: int
    cache_hit_rate: float
    latency_us_p50: float
    latency_us_p99: float
    hops_p50: float
    hops_p99: float
    stretch_p99: Optional[float]
    slo_bound: Optional[float]
    budget_remaining: float
    active_alerts: List[str] = field(default_factory=list)
    alert_transitions: int = 0
    snapshot: Dict[str, Any] = field(default_factory=dict)
    mode: str = "first"
    cache_size: int = 4096

    @property
    def healthy(self) -> bool:
        """No burn-rate alert firing and error budget not exhausted."""
        return not self.active_alerts and self.budget_remaining > 0.0

    def to_run_record(self) -> RunRecord:
        """The ``monitor`` manifest: the report row, the registry
        snapshot as ``metrics`` and the SLO-budget verdict."""
        verdict = BoundVerdict(
            name=f"monitor/{self.workload}/slo-budget",
            column="budget_remaining",
            formula="budget_remaining > 0 and no burn-rate alert firing",
            measured=round(self.budget_remaining, 6),
            limit=0.0,
            passed=self.healthy,
        )
        return make_run_record(
            "monitor",
            workload={
                "workload": self.workload,
                "queries": self.queries,
                "seed": self.seed,
                "mode": self.mode,
                "cache_size": self.cache_size,
                "target_qps": self.target_qps,
                "objective": self.objective,
            },
            columns=[self.to_row()],
            verdicts=[verdict],
            metrics=self.snapshot,
        )

    def to_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "workload": self.workload,
            "queries": self.queries,
            "seed": self.seed,
            "target_qps": self.target_qps,
            "objective": self.objective,
            "serve_s": round(self.serve_s, 4),
            "throughput_qps": round(self.throughput_qps, 1),
            "failures": self.failures,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "latency_us_p50": round(self.latency_us_p50, 2),
            "latency_us_p99": round(self.latency_us_p99, 2),
            "hops_p50": self.hops_p50,
            "hops_p99": self.hops_p99,
            "budget_remaining": round(self.budget_remaining, 6),
            "active_alerts": list(self.active_alerts),
            "alert_transitions": self.alert_transitions,
            "healthy": self.healthy,
        }
        if self.stretch_p99 is not None:
            row["stretch_p99"] = round(self.stretch_p99, 4)
            row["slo_bound"] = self.slo_bound
        return row

    def render(self) -> str:
        lines = [
            f"workload={self.workload} queries={self.queries} "
            f"seed={self.seed} target_qps={self.target_qps:g}",
            f"throughput    {self.throughput_qps:>12.0f} queries/s "
            f"(serve {self.serve_s:.3f}s)",
            f"latency (us)  p50={self.latency_us_p50:.1f} "
            f"p99={self.latency_us_p99:.1f}",
            f"hops          p50={self.hops_p50:.0f} p99={self.hops_p99:.0f}",
            f"failures      {self.failures} "
            f"(cache hit rate {self.cache_hit_rate:.1%})",
        ]
        if self.stretch_p99 is not None:
            lines.append(
                f"stretch       p99={self.stretch_p99:.3f} "
                f"(bound {self.slo_bound:.3g}x)"
            )
        alerts = ",".join(self.active_alerts) if self.active_alerts else "none"
        status = "HEALTHY" if self.healthy else "DEGRADED"
        lines.append(
            f"SLO budget    {self.budget_remaining:.1%} remaining, "
            f"alerts firing: {alerts} "
            f"({self.alert_transitions} transitions): {status}"
        )
        return "\n".join(lines)


def _status_line(metrics: ServeMetrics, served: int, total: int,
                 real_qps: float, now: float) -> str:
    lat = metrics.latency_us.sketch
    stretch = metrics.stretch.sketch
    slo = metrics.slo
    parts = [
        f"[monitor] {served}/{total}",
        f"qps={real_qps:,.0f}",
        f"p50={lat.quantile(0.5):.1f}us",
        f"p99={lat.quantile(0.99):.1f}us",
    ]
    if stretch.count:
        parts.append(f"stretch_p99={stretch.quantile(0.99):.2f}")
    parts.append(f"budget={slo.budget_remaining:.0%}")
    firing = slo.active_alerts()
    parts.append("alerts=" + (",".join(firing) if firing else "-"))
    return " ".join(parts)


def run_monitor(
    scheme: Any,
    graph: nx.Graph,
    *,
    workload: str = "uniform",
    queries: int = 1000,
    seed: int = 0,
    mode: str = "first",
    cache_size: int = 4096,
    zipf_alpha: float = 1.1,
    target_qps: float = 1000.0,
    objective: float = 0.99,
    slo_bound: Optional[float] = None,
    metrics: Optional[ServeMetrics] = None,
    status_stream: Optional[TextIO] = None,
    refresh_every: int = 200,
) -> MonitorReport:
    """Replay ``queries`` seeded queries, scoring each against the SLO.

    Pass ``status_stream`` (e.g. ``sys.stderr``) to get the live
    refreshing status line; ``None`` (the default) renders nothing.
    The report's ``snapshot`` holds the full registry snapshot and SLO
    state; ``record_run(run_monitor, ...)`` gives its RunRecord.
    """
    from ..serve.compile import CompiledGraphScheme, compile_scheme
    from ..serve.engine import ServeEngine
    from ..serve.workloads import make_workload
    from ..tracing.sampler import Tracer

    if target_qps <= 0:
        raise ValueError("target_qps must be positive")
    compiled = compile_scheme(scheme, graph)
    if metrics is None:
        metrics = ServeMetrics(slo_objective=objective)
    engine = ServeEngine(compiled, mode=mode, cache_size=cache_size,
                         metrics=metrics)
    if slo_bound is None and isinstance(compiled, CompiledGraphScheme):
        slo_bound = 4.0 * compiled.k - 3.0

    pairs = make_workload(workload, graph, compiled.nodes, queries, seed,
                          zipf_alpha=zipf_alpha)
    # Tail-only tracer (S19): head sampling off, so the only state is the
    # worst-stretch/failure tail buffer.  Its trace ids are attached to
    # firing SLO alerts so the structured event links to ``repro explain``.
    tracer = Tracer(rate=0.0, seed=seed, tail_limit=16,
                    prefix=f"{workload}-{seed}")

    perf_counter = time.perf_counter
    route_recorded = engine.route_recorded
    observe = metrics.observe_query
    adj = Adjacency.of(graph)
    dists: Dict[NodeId, Dict[NodeId, float]] = {}
    tick = 1.0 / target_qps
    serve_started = perf_counter()
    for i, (u, v) in enumerate(pairs):
        q0 = perf_counter()
        result = route_recorded(u, v)
        latency_us = (perf_counter() - q0) * 1e6
        now = (i + 1) * tick
        stretch = exemplar = None
        if slo_bound is not None and result.ok:
            dist = dists.get(u)
            if dist is None:
                dist, _ = dijkstra(adj, [u])
                dists[u] = dist
            exact = dist.get(v, 0.0)
            stretch = result.length / exact if exact > 0 else 1.0
            if metrics.stretch.wants_exemplar(stretch):
                exemplar = exemplar_payload(result,
                                            trace_id=tracer.trace_id(i))
        tracer.tail.offer(i, u, v, stretch, failed=not result.ok)
        before = len(metrics.slo.alerts)
        observe(latency_us, now, ok=result.ok, stretch=stretch,
                slo_bound=slo_bound, exemplar=exemplar)
        for alert in metrics.slo.alerts[before:]:
            if alert.state == "firing":
                alert.trace_ids = tuple(tracer.tail_trace_ids(8))
        if status_stream is not None and (
                (i + 1) % refresh_every == 0 or i + 1 == len(pairs)):
            elapsed = perf_counter() - serve_started
            real_qps = (i + 1) / elapsed if elapsed > 0 else 0.0
            status_stream.write(
                "\r" + _status_line(metrics, i + 1, len(pairs),
                                    real_qps, now))
            status_stream.flush()
    serve_s = perf_counter() - serve_started
    if status_stream is not None:
        status_stream.write("\n")
        status_stream.flush()

    now = len(pairs) * tick
    for alert in metrics.slo.check(now):
        if alert.state == "firing":
            alert.trace_ids = tuple(tracer.tail_trace_ids(8))
    snapshot = metrics.snapshot(now=now)
    lat = metrics.latency_us.sketch
    hops = metrics.hops.sketch
    stretch_sk = metrics.stretch.sketch
    return MonitorReport(
        workload=workload,
        queries=len(pairs),
        seed=seed,
        target_qps=target_qps,
        objective=objective,
        serve_s=serve_s,
        throughput_qps=len(pairs) / serve_s if serve_s > 0 else 0.0,
        failures=engine.failures,
        cache_hit_rate=engine.cache.hit_rate,
        latency_us_p50=lat.quantile(0.5),
        latency_us_p99=lat.quantile(0.99),
        hops_p50=float(round(hops.quantile(0.5))),
        hops_p99=float(round(hops.quantile(0.99))),
        stretch_p99=(stretch_sk.quantile(0.99) if stretch_sk.count
                     else None),
        slo_bound=slo_bound,
        budget_remaining=metrics.slo.budget_remaining,
        active_alerts=metrics.slo.active_alerts(),
        alert_transitions=len(metrics.slo.alerts),
        snapshot=snapshot,
        mode=mode,
        cache_size=cache_size,
    )
