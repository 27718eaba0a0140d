"""The serve-path metrics bundle: a cumulative fold of serve reports.

:class:`ServeMetrics` measures nothing itself.
:func:`~repro.serve.harness.serve_pairs` measures every call once, into
its :class:`~repro.serve.ServeReport`, and hands the report to an
attached bundle, which adds it up: the four counters sum, the hops,
latency and stretch sketches merge bucket-exactly, and the worst-stretch
exemplars keep the worst :data:`EXEMPLAR_LIMIT` under one total order.
:meth:`ServeReport.merge` (the shard merge) combines reports with the
same two functions, :func:`merge_sketches` and :func:`worst_exemplars`,
so a bundle fed one merged pool report equals one fed the shard reports,
and one fed the single-process report of the same stream.

The engine has no metrics hook: attaching a bundle costs the serve loop
nothing, and the bundle is scraped as JSON (:meth:`ServeMetrics.snapshot`)
or Prometheus text (:meth:`ServeMetrics.expose`).
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import islice
from operator import sub
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .exposition import render_prometheus
from .sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.engine import RouteBatch
    from ..serve.harness import ServeReport

__all__ = ["ServeMetrics", "exemplar_payload", "path_length_counts"]

#: Relative accuracy of every serving sketch.  0.005 keeps integer hop
#: percentiles *exact* after rounding for paths under 100 hops
#: (``alpha * h < 0.5``), so the golden-pinned ``hops_p50``/``hops_p99``
#: columns cannot drift.
SKETCH_ACCURACY = 0.005

#: Worst-stretch exemplars a call, a bundle and a merged pool report keep.
EXEMPLAR_LIMIT = 8

#: Prometheus family name prefix.
NAMESPACE = "repro_serve"

#: counter family -> (the ServeReport field it sums, help text).
_COUNTERS = {
    "queries_total": ("queries", "Queries served (count-and-continue)."),
    "failures_total": ("failures",
                       "Queries that ended in a recorded failure."),
    "cache_hits_total": ("cache_hits", "Decision-cache hits."),
    "cache_misses_total": ("cache_misses", "Decision-cache misses."),
}

#: histogram family (and report sketch name) -> help text.
_HISTOGRAMS = {
    "hops": "Hops per successfully served query.",
    "latency_us": "Per-query serving latency (microseconds).",
    "stretch": "Per-query multiplicative stretch vs exact distance.",
}


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

    Every exemplar the serve harness keeps carries these keys;
    ``trace_id`` (S19) links the exemplar to the
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


def exemplar_order(entry: Dict[str, Any]) -> Tuple[float, str, str, str]:
    """The one total order on exemplars: worst value first, then
    ``source``, then ``target``, then the rest of the payload.

    A call, a bundle and a shard merge all keep the first
    :data:`EXEMPLAR_LIMIT` under it, so the kept set never depends on
    arrival order or on how the stream was split.
    """
    rest = {k: v for k, v in entry.items()
            if k not in ("value", "source", "target")}
    return (-float(entry["value"]), entry["source"], entry["target"],
            json.dumps(rest, sort_keys=True, default=repr))


def worst_exemplars(entries: Iterable[Dict[str, Any]],
                    limit: int = EXEMPLAR_LIMIT) -> List[Dict[str, Any]]:
    """The first ``limit`` of ``entries`` under :func:`exemplar_order`."""
    return sorted(entries, key=exemplar_order)[:limit]


def merge_sketches(into: Dict[str, QuantileSketch],
                   report: "ServeReport") -> None:
    """Merge ``report``'s sketches into ``into`` (adding missing names).

    A report that delivered nothing holds a single ``0`` in its hops
    sketch as an empty-run placeholder; it is left out here, so a merge
    counts exactly the delivered queries.
    """
    for name, sketch in report.sketches.items():
        if name == "hops" and report.queries == report.failures:
            continue
        if name not in into:
            into[name] = QuantileSketch(SKETCH_ACCURACY)
        into[name].merge(sketch)


class ServeMetrics:
    """Cumulative serving metrics: the fold of every report it was given.

    ``serve_pairs`` calls :meth:`add` once per call on the bundle it was
    given or found on the engine; ``repro serve --workers N`` adds the
    merged pool report.  Counters and sketches never depend on how the
    reports were split: two calls fold to what one call over both
    streams reports.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {
            field: 0 for field, _ in _COUNTERS.values()}
        self.sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch(SKETCH_ACCURACY) for name in _HISTOGRAMS}
        #: worst-first, at most :data:`EXEMPLAR_LIMIT`
        self.exemplars: List[Dict[str, Any]] = []

    def add(self, report: "ServeReport") -> None:
        """Fold one report in."""
        for field in self.totals:
            self.totals[field] += getattr(report, field)
        merge_sketches(self.sketches, report)
        self.exemplars = worst_exemplars(self.exemplars + report.exemplars)

    # -- scraping ------------------------------------------------------------

    def counters(self) -> Iterator[Tuple[str, str, int]]:
        """``(family, help, value)`` of each counter, in exposition order."""
        for name, (field, help_) in _COUNTERS.items():
            yield f"{NAMESPACE}_{name}", help_, self.totals[field]

    def histograms(self) -> Iterator[
            Tuple[str, str, QuantileSketch, List[Dict[str, Any]]]]:
        """``(family, help, sketch, exemplars)`` of each histogram."""
        for name, help_ in _HISTOGRAMS.items():
            yield (f"{NAMESPACE}_{name}", help_, self.sketches[name],
                   self.exemplars if name == "stretch" else [])

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot: ``{family: {type, help, series}}``."""
        out: Dict[str, Any] = {}
        for name, help_, value in self.counters():
            out[name] = {"type": "counter", "help": help_,
                         "series": [{"labels": {}, "value": float(value)}]}
        for name, help_, sk, exemplars in self.histograms():
            entry: Dict[str, Any] = {
                "labels": {},
                "count": sk.count,
                "sum": sk.total,
                "min": sk.min_value,
                "max": sk.max_value,
                "quantiles": {str(q): sk.quantile(q)
                              for q in (0.5, 0.9, 0.99)},
            }
            if exemplars:
                entry["exemplars"] = [dict(x) for x in exemplars]
            out[name] = {"type": "histogram", "help": help_,
                         "series": [entry]}
        return out

    def expose(self) -> str:
        """Prometheus text exposition of the bundle."""
        return render_prometheus(self)
