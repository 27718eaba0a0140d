"""The serve-path instrument bundle: registry wiring for live serving.

:class:`ServeMetrics` pre-registers every instrument the serving tier
emits -- query/failure/cache counters, a QPS meter, hop/latency/stretch
histograms with worst-stretch exemplars, and a stretch-SLO
:class:`~repro.metrics.slo.SloMonitor` -- and exposes the few cheap
mutators the hot path calls.  The zero-overhead contract mirrors
:mod:`repro.telemetry.events`: the engine holds ``metrics=None`` by
default and pays exactly one ``is not None`` check per batch; when a
bundle is attached, the per-batch cost is a handful of attribute adds on
already-accumulated local counters plus one ``list.append`` deferring the
batch for scrape-time hop counting (a C-level ``Counter`` sweep over the
batch's offsets column, folded into the ``hop_counts`` scratch and the
histogram sketch at ``flush()``).

Everything label-shaped is interned at construction time: no per-query
label dicts on the hot path (the perf ledger's ``metrics.overhead_share``
measures what is left).
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import sub
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .registry import MetricsRegistry
from .slo import DEFAULT_RULES, BurnRule, SloMonitor

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.engine import RouteBatch

__all__ = ["ServeMetrics", "exemplar_payload", "path_length_counts"]


def path_length_counts(batch: "RouteBatch") -> "Counter[int]":
    """Path lengths (``hops + 1``) of the delivered results: one C-level
    sweep over the differences of the offsets column, less the (sparse)
    failures' partial paths -- no Python-level work per query."""
    offsets = batch.offsets
    counts = Counter(map(sub, islice(offsets, 1, None), offsets))
    for i in batch.errors:
        counts[offsets[i + 1] - offsets[i]] -= 1
    return +counts


def exemplar_payload(
    result: Any,
    *,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The standard worst-stretch exemplar payload for one served query.

    Shared by the serve harness and ``repro monitor`` so every exemplar
    carries the same keys; ``trace_id`` (S19) links the exemplar to the
    sampled :class:`~repro.tracing.QueryTrace` with the same id, making
    Prometheus exemplars and ``repro explain`` reference the same query.
    All values render as exposition-safe label strings — the payload
    round-trips through ``render_prometheus`` / ``parse_prometheus``.
    """
    payload: Dict[str, Any] = {
        "source": repr(result.source),
        "target": repr(result.target),
        "hops": result.hops,
        "path_prefix": [repr(x) for x in result.path[:4]],
        "cached": result.cached,
    }
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload

#: Hop counts at or above this fold into the last scratch slot's
#: histogram add as exact values instead (paths this long mean a budget
#: bug, not a fast path worth optimizing).
_HOP_SCRATCH = 512

#: Deferred-batch cap: hop counting normally waits for the next scrape
#: (``flush``), but after this many pending batches the backlog is
#: drained inline so held batches cannot grow without bound.
_MAX_PENDING_BATCHES = 64


class ServeMetrics:
    """All serving instruments, registered once, mutated cheaply.

    ``relative_accuracy`` bounds every histogram's quantile error; the
    default 0.005 keeps integer hop percentiles *exact* after rounding
    for any path shorter than 100 hops (``alpha * h < 0.5``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        slo_name: str = "stretch",
        slo_objective: float = 0.99,
        slo_rules: Sequence[BurnRule] = DEFAULT_RULES,
        relative_accuracy: float = 0.005,
        exemplar_limit: int = 8,
        rate_window_s: float = 10.0,
    ) -> None:
        reg = MetricsRegistry() if registry is None else registry
        self.registry = reg
        self.queries = reg.counter(
            "queries_total", "Queries served (count-and-continue).")
        self.failures = reg.counter(
            "failures_total", "Queries that ended in a recorded failure.")
        self.cache_hits = reg.counter(
            "cache_hits_total", "Decision-cache hits.")
        self.cache_misses = reg.counter(
            "cache_misses_total", "Decision-cache misses.")
        self.qps = reg.meter(
            "qps", "Serving rate over the trailing window.",
            window_s=rate_window_s)
        self.hops = reg.histogram(
            "hops", "Hops per successfully served query.",
            relative_accuracy=relative_accuracy, exemplar_limit=0)
        self.latency_us = reg.histogram(
            "latency_us", "Per-query serving latency (microseconds).",
            relative_accuracy=relative_accuracy, exemplar_limit=0)
        self.stretch = reg.histogram(
            "stretch", "Per-query multiplicative stretch vs exact distance.",
            relative_accuracy=relative_accuracy,
            exemplar_limit=exemplar_limit)
        self.budget_gauge = reg.gauge(
            "slo_budget_remaining",
            "Fraction of the stretch-SLO error budget left.")
        self.slo = SloMonitor(name=slo_name, objective=slo_objective,
                              rules=slo_rules)
        #: engine scratch: hop_counts[h] = queries served with h hops since
        #: the last flush().  A plain list the hot loop indexes directly.
        self.hop_counts = [0] * _HOP_SCRATCH
        #: batches whose hop counting is deferred until the next scrape,
        #: drained by :meth:`flush`.
        self._pending: List["RouteBatch"] = []

    # -- engine-side (batch) -------------------------------------------------

    def record_batch(self, served: int, failed: int, hits: int,
                     misses: int) -> None:
        """Fold a batch's already-accumulated counters in (engine path)."""
        self.queries.value += served
        self.failures.value += failed
        self.cache_hits.value += hits
        self.cache_misses.value += misses

    def defer_path_lengths(self, batch: "RouteBatch") -> None:
        """Queue a finished batch for scrape-time hop counting.

        The hot serve loop pays one ``list.append`` here; the C-level
        ``Counter`` sweep over the batch's path lengths runs at the next
        :meth:`flush` (i.e. when someone actually scrapes), the same
        aggregate-at-collect-time trade Prometheus client libraries
        make.  The held references are batches the caller already owns,
        and the backlog self-drains past ``_MAX_PENDING_BATCHES``.
        """
        pending = self._pending
        pending.append(batch)
        if len(pending) >= _MAX_PENDING_BATCHES:
            self._drain_pending()

    def record_path_lengths(self, path_lengths: Dict[int, int]) -> None:
        """Fold a Counter of batch *path lengths* (``hops + 1``; every
        result path includes its source) into the hop scratch."""
        counts = self.hop_counts
        add = self.hops.sketch.add
        for length, c in path_lengths.items():
            h = length - 1
            if h < _HOP_SCRATCH:
                counts[h] += c
            else:
                add(h, c)

    def _drain_pending(self) -> None:
        pending, self._pending = self._pending, []
        for batch in pending:
            self.record_path_lengths(path_length_counts(batch))

    def record_result(self, ok: bool, hops: int, cached: bool,
                      misses: int = 0) -> None:
        """Single-query engine path (``route_recorded``); ``misses`` is
        what the query added to the decision cache's miss counter."""
        self.queries.value += 1
        self.cache_misses.value += misses
        if ok:
            if hops < _HOP_SCRATCH:
                self.hop_counts[hops] += 1
            else:
                self.hops.sketch.add(hops)
            if cached:
                self.cache_hits.value += 1
        else:
            self.failures.value += 1

    def flush(self) -> None:
        """Drain deferred batches, then fold the hop scratch into the
        hops histogram sketch."""
        if self._pending:
            self._drain_pending()
        counts = self.hop_counts
        add = self.hops.sketch.add
        for h, c in enumerate(counts):
            if c:
                add(h, c)
                counts[h] = 0

    # -- harness/monitor-side (per query, with clock) ------------------------

    def observe_query(
        self,
        latency_us: float,
        now: float,
        *,
        ok: bool = True,
        stretch: Optional[float] = None,
        slo_bound: Optional[float] = None,
        exemplar: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one query's latency/stretch/SLO outcome at time ``now``.

        ``stretch`` feeds the stretch histogram (and, when ``exemplar``
        is given and the value ranks among the worst, the exemplar
        reservoir).  When ``slo_bound`` is set the query is scored
        good/bad against the SLO monitor: bad = failed or over-bound.
        """
        self.latency_us.sketch.add(latency_us)
        self.qps.mark(1.0, now)
        if stretch is not None:
            hist = self.stretch
            hist.sketch.add(stretch)
            if exemplar is not None and hist.wants_exemplar(stretch):
                hist.offer_exemplar(stretch, exemplar)
        if slo_bound is not None:
            bad = (not ok) or (stretch is not None
                               and stretch > slo_bound + 1e-9)
            self.slo.record(0.0 if bad else 1.0, 1.0 if bad else 0.0, now)
            self.budget_gauge.value = self.slo.budget_remaining

    # -- scraping ------------------------------------------------------------

    def snapshot(self, *, now: Optional[float] = None) -> Dict[str, Any]:
        """Registry snapshot plus the SLO budget/alert state."""
        self.flush()
        snap = self.registry.snapshot(now=now)
        snap["slo"] = self.slo.to_dict()
        return snap

    def expose(self, *, now: Optional[float] = None) -> str:
        """Prometheus text exposition of the registry."""
        self.flush()
        return self.registry.expose(now=now)
