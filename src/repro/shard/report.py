"""S20 report transport: ServeReports across the worker pipe, exactly.

Workers measure with the ordinary :class:`~repro.serve.ServeReport`; this
module flattens one to a plain JSON-able payload for the pipe and back
without losing anything the merge algebra needs: sketches round-trip
through :meth:`QuantileSketch.to_dict` (bucket-exact by construction),
exemplar payloads are already plain dicts, and the raw counters ride
next to their derived rates.  Query results travel as the five columns
of the worker's :class:`~repro.serve.RouteBatch` (a few flat buffers, not
a tuple per query; the pairs stay with the parent that sent them) — the
packed tables themselves never cross the boundary (workers attach the
sealed image by manifest), only measurements do.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..metrics.sketch import QuantileSketch
from ..serve.engine import RouteBatch
from ..serve.harness import ServeReport

NodeId = Hashable

#: ServeReport fields copied verbatim (JSON-able scalars).
_SCALAR_FIELDS = (
    "workload", "queries", "seed", "mode", "cache_size",
    "compile_s", "serve_s", "throughput_qps",
    "hops_p50", "hops_p90", "hops_p99", "hops_max",
    "latency_us_p50", "latency_us_p90", "latency_us_p99",
    "cache_hit_rate", "failures",
    "slo_bound", "slo_fraction", "slo_target",
    "cache_hits", "cache_misses", "slo_within", "shards",
)


def report_payload(
    report: ServeReport,
    results: Optional[RouteBatch] = None,
) -> Dict[str, Any]:
    """Flatten a report (and optionally its per-query results) for the pipe."""
    payload: Dict[str, Any] = {
        name: getattr(report, name) for name in _SCALAR_FIELDS
    }
    payload["packed"] = dict(report.packed)
    payload["sketches"] = {
        name: sketch.to_dict() for name, sketch in report.sketches.items()
    }
    payload["exemplars"] = [dict(x) for x in report.exemplars]
    payload["metrics"] = dict(report.metrics)
    if results is not None:
        payload["results"] = results.columns()
    return payload


def payload_report(
    payload: Dict[str, Any],
    pairs: List[Tuple[NodeId, NodeId]],
) -> Tuple[ServeReport, Optional[RouteBatch]]:
    """Rebuild ``(report, results-or-None)`` from a pipe payload;
    ``pairs`` is the slice the worker was sent (its batch's keys)."""
    kwargs = {name: payload[name] for name in _SCALAR_FIELDS}
    report = ServeReport(
        **kwargs,
        packed=dict(payload["packed"]),
        sketches={
            name: QuantileSketch.from_dict(blob)
            for name, blob in payload["sketches"].items()
        },
        exemplars=[dict(x) for x in payload["exemplars"]],
        metrics=dict(payload["metrics"]),
    )
    columns = payload.get("results")
    if columns is None:
        return report, None
    return report, RouteBatch(pairs, *columns)


def shards_section(
    shard_reports: Sequence[ServeReport],
    manifest: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """The RunRecord ``shards`` rows: one per worker plus provenance.

    Per-shard rows carry the partition sizes and per-shard measurements;
    the table-image provenance (segment size) rides on row 0 so
    the record stays flat and diffable.
    """
    rows: List[Dict[str, Any]] = []
    for i, report in enumerate(shard_reports):
        row = {
            "shard": i,
            "queries": report.queries,
            "failures": report.failures,
            "serve_s": round(report.serve_s, 4),
            "throughput_qps": round(report.throughput_qps, 1),
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
        }
        if i == 0:
            row["image_nbytes"] = manifest["nbytes"]
        rows.append(row)
    return rows
