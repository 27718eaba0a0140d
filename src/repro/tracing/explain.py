"""S19 ``repro explain``: replay trace files into attribution tables.

Consumes the JSONL written by ``repro serve --trace-out`` (or the
``traces`` section of a serve RunRecord), selects traces by id or by
worst excess, and renders:

* an aggregate **per-level attribution table** — how much of the total
  ``actual - optimal`` cost each hierarchy level is responsible for
  across the selected queries (the Elkin–Neiman decomposition, measured);
* one **per-query drill-down** per selected trace: committed level /
  landmark / tree, bunch membership, phase split, and the hop-by-hop
  span list with per-hop excess.

The run is recorded as a RunRecord of kind ``explain`` whose
``explain/attribution-exact`` verdict asserts that on every selected
trace the per-level buckets sum exactly to ``actual - optimal``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import InputError
from ..telemetry.bounds import BoundVerdict
from ..telemetry.runrecord import RunRecord, make_run_record

_DRILLDOWN_LIMIT = 8  # per-query hop tables rendered in full


def select_traces(
    traces: Sequence[Dict[str, Any]],
    *,
    trace_id: Optional[str] = None,
    worst: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Pick the traces to explain.

    ``trace_id`` selects exactly one (error when absent); ``worst`` the N
    worst by excess, failed queries first; neither selects everything.
    """
    if trace_id is not None:
        picked = [t for t in traces if t.get("trace_id") == trace_id]
        if not picked:
            known = ", ".join(
                str(t.get("trace_id")) for t in list(traces)[:8])
            raise InputError(
                f"trace id {trace_id!r} not found "
                f"(file holds {len(traces)}: {known}{'...' if len(traces) > 8 else ''})"
            )
        return picked
    ranked = sorted(traces, key=_badness, reverse=True)
    if worst is not None:
        return ranked[:worst]
    return ranked


def _badness(trace: Dict[str, Any]) -> Tuple[int, float]:
    """Sort key: failures outrank everything, then excess."""
    if not trace.get("ok", False):
        return (1, trace.get("length") or 0.0)
    optimal = trace.get("optimal")
    if optimal is None:
        return (0, 0.0)
    return (0, float(trace.get("length", 0.0)) - float(optimal))


def _trace_excess(trace: Dict[str, Any]) -> Optional[float]:
    optimal = trace.get("optimal")
    if not trace.get("ok", False) or optimal is None:
        return None
    return float(trace.get("length", 0.0)) - float(optimal)


def _residual(trace: Dict[str, Any]) -> Optional[float]:
    """|sum(per-level attribution) - (actual - optimal)| for one trace."""
    attribution = trace.get("attribution") or {}
    excess = _trace_excess(trace)
    if not attribution or excess is None:
        return None
    return abs(sum(attribution.values()) - excess)


def per_level_table(
    traces: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate the selected traces' attributions by hierarchy level."""
    levels: Dict[str, Dict[str, Any]] = {}
    for trace in traces:
        for level, excess in (trace.get("attribution") or {}).items():
            row = levels.setdefault(level, {
                "level": level, "queries": 0, "excess": 0.0,
                "optimal": 0.0, "actual": 0.0,
            })
            row["queries"] += 1
            row["excess"] += excess
            row["optimal"] += float(trace.get("optimal") or 0.0)
            row["actual"] += float(trace.get("length") or 0.0)
    out = []
    for key in sorted(levels, key=lambda s: (len(s), s)):
        row = levels[key]
        optimal = row["optimal"]
        row["stretch"] = round(row["actual"] / optimal, 4) if optimal else 1.0
        row["excess"] = round(row["excess"], 6)
        row["optimal"] = round(optimal, 6)
        row["actual"] = round(row["actual"], 6)
        out.append(row)
    return out


def run_explain(
    traces: Sequence[Dict[str, Any]],
    *,
    trace_id: Optional[str] = None,
    worst: Optional[int] = None,
    source: str = "",
) -> Tuple[str, RunRecord]:
    """Explain selected traces; returns (report text, RunRecord)."""
    if not traces:
        raise InputError("no traces to explain (empty trace file?)")
    selected = select_traces(traces, trace_id=trace_id, worst=worst)

    columns: List[Dict[str, Any]] = []
    residuals: List[float] = []
    for trace in selected:
        excess = _trace_excess(trace)
        residual = _residual(trace)
        if residual is not None:
            residuals.append(residual)
        columns.append({
            "trace_id": trace.get("trace_id"),
            "source": trace.get("source"),
            "target": trace.get("target"),
            "via": trace.get("via"),
            "ok": trace.get("ok", False),
            "level": trace.get("level"),
            "tree_id": trace.get("tree_id"),
            "hops": len(trace.get("hops") or []),
            "actual": trace.get("length"),
            "optimal": trace.get("optimal"),
            "excess": excess,
            "stretch": trace.get("stretch"),
            "attribution_residual": residual,
        })

    max_residual = max(residuals) if residuals else 0.0
    verdict = BoundVerdict(
        name="explain/attribution-exact",
        column="attribution_residual",
        formula="sum_level attribution == actual - optimal (exactly)",
        measured=max_residual,
        limit=0.0,
        passed=max_residual <= 0.0,
    )
    record = make_run_record(
        "explain",
        workload={
            "traces": len(traces),
            "selected": len(selected),
            "trace_id": trace_id,
            "worst": worst,
            "source": source,
        },
        columns=columns,
        verdicts=[verdict],
        traces=[dict(t) for t in selected],
    )
    return _render(selected, columns, verdict), record


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _table(rows: List[Dict[str, Any]], keys: List[str]) -> List[str]:
    cells = [[_fmt(row.get(k)) for k in keys] for row in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) if cells else len(k)
              for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(widths[i]) for i, k in enumerate(keys))]
    lines.append("  ".join("-" * w for w in widths))
    for row_cells in cells:
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(row_cells)))
    return lines


def _render(
    selected: List[Dict[str, Any]],
    columns: List[Dict[str, Any]],
    verdict: BoundVerdict,
) -> str:
    lines: List[str] = []
    lines.append(f"repro explain — {len(selected)} trace(s)")
    lines.append("")
    lines.append("Per-level stretch attribution (aggregate over selection):")
    level_rows = per_level_table(selected)
    if level_rows:
        lines.extend(_table(
            level_rows, ["level", "queries", "actual", "optimal",
                         "excess", "stretch"]))
    else:
        lines.append("  (no attributed traces — failures only?)")
    lines.append("")
    lines.append("Selected queries, worst first:")
    lines.extend(_table(
        columns, ["trace_id", "source", "target", "via", "ok", "level",
                  "hops", "actual", "optimal", "excess", "stretch"]))
    for trace in selected[:_DRILLDOWN_LIMIT]:
        lines.append("")
        lines.extend(_drilldown(trace))
    if len(selected) > _DRILLDOWN_LIMIT:
        lines.append("")
        lines.append(f"... {len(selected) - _DRILLDOWN_LIMIT} more trace(s) "
                     "without drill-down (see --json)")
    lines.append("")
    status = "PASS" if verdict.passed else "FAIL"
    lines.append(f"[{status}] {verdict.name}: max residual "
                 f"{verdict.measured!r} (exactness limit {verdict.limit})")
    return "\n".join(lines)


def _drilldown(trace: Dict[str, Any]) -> List[str]:
    lines = [f"-- {trace.get('trace_id')}  "
             f"{trace.get('source')} -> {trace.get('target')}  "
             f"(via {trace.get('via')})"]
    if trace.get("ok", False):
        lines.append(
            f"   committed: level {trace.get('level')} "
            f"tree {trace.get('tree_id')!r} root {trace.get('root')!r} "
            f"(candidate #{trace.get('candidate_index')} of bunch levels "
            f"{trace.get('bunch_levels')})")
        phases = trace.get("phases") or {}
        lines.append(
            f"   cost: actual {_fmt(trace.get('length'))} = optimal "
            f"{_fmt(trace.get('optimal'))} + ascent excess "
            f"{_fmt(phases.get('ascent'))} + descent excess "
            f"{_fmt(phases.get('descent'))}")
    else:
        lines.append(f"   FAILED: {trace.get('error')}")
        lines.append(f"   walked {_fmt(trace.get('length'))} over "
                     f"{len(trace.get('hops') or [])} hop(s) before failing")
    hops = trace.get("hops") or []
    if hops:
        lines.extend("   " + line for line in _table(
            hops, ["index", "kind", "source", "dest", "weight", "excess"]))
    else:
        lines.append("   (no hops: source == target or failed pre-hop)")
    return lines
