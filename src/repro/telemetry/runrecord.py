"""The :class:`RunRecord` manifest: one machine-readable record per run.

A RunRecord captures everything Tables 1-2 measure plus provenance —
workload (generator, params, seed, scheme, k/ε), wall-clock per span,
simulated/charged round counters, peak RSS, package version — and the
paper-bound verdicts from :mod:`repro.telemetry.bounds`.  It serializes to
a single JSON object (``to_json``) or appends as one line of JSONL next to
a result file (``append_jsonl``), and round-trips via ``from_dict``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .bounds import BoundVerdict
from .events import collect

SCHEMA_VERSION = 1


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


def _package_version() -> str:
    from .. import __version__

    return __version__


@dataclass
class RunRecord:
    """Provenance + measurements + verdicts for one execution."""

    kind: str  # "table1" | "table2" | "fig/<name>" | "demo" | ...
    workload: Dict[str, Any] = field(default_factory=dict)
    columns: List[Dict[str, Any]] = field(default_factory=list)
    verdicts: List[BoundVerdict] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    flight: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    traces: List[Dict[str, Any]] = field(default_factory=list)
    shards: List[Dict[str, Any]] = field(default_factory=list)
    # Machine-moment provenance: excluded from equality on purpose, so
    # record comparison (differential / merge certificates) is about the
    # measurement, never about when or where it ran; the shard merge
    # certificate (merged report == single-process report) relies on it.
    wall_s: float = field(default=0.0, compare=False)
    peak_rss_kb: Optional[int] = field(default=None, compare=False)
    package_version: str = ""
    created_unix: float = field(default=0.0, compare=False)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.package_version:
            self.package_version = _package_version()
        if not self.created_unix:
            self.created_unix = time.time()
        if self.peak_rss_kb is None:
            self.peak_rss_kb = peak_rss_kb()

    # -- verdicts ------------------------------------------------------------

    @property
    def passed(self) -> bool:
        """True when every attached bound verdict passed."""
        return all(v.passed for v in self.verdicts)

    def failed_verdicts(self) -> List[BoundVerdict]:
        return [v for v in self.verdicts if not v.passed]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "created_unix": round(self.created_unix, 3),
            "package_version": self.package_version,
            "workload": _jsonable(self.workload),
            "columns": _jsonable(self.columns),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "passed": self.passed,
            "spans": self.spans,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "wall_s": round(self.wall_s, 4),
            "peak_rss_kb": self.peak_rss_kb,
        }
        if self.flight:
            out["flight"] = self.flight
        if self.metrics:
            out["metrics"] = _jsonable(self.metrics)
        if self.traces:
            out["traces"] = _jsonable(self.traces)
        if self.shards:
            out["shards"] = _jsonable(self.shards)
        return out

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        from .bounds import verdict_from_dict

        return cls(
            kind=d["kind"],
            workload=dict(d.get("workload", {})),
            columns=list(d.get("columns", [])),
            verdicts=[verdict_from_dict(v) for v in d.get("verdicts", [])],
            spans=list(d.get("spans", [])),
            counters=dict(d.get("counters", {})),
            gauges=dict(d.get("gauges", {})),
            flight=list(d.get("flight", [])),
            metrics=dict(d.get("metrics", {})),
            traces=list(d.get("traces", [])),
            shards=list(d.get("shards", [])),
            wall_s=float(d.get("wall_s", 0.0)),
            peak_rss_kb=d.get("peak_rss_kb"),
            package_version=d.get("package_version", ""),
            created_unix=float(d.get("created_unix", 0.0)),
            schema_version=int(d.get("schema_version", SCHEMA_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))

    def append_jsonl(self, path: Union[str, Path]) -> Path:
        """Append this record as one JSONL line next to a result file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(self.to_json(indent=None) + "\n")
        return path


def make_run_record(
    kind: str,
    *,
    workload: Dict[str, Any],
    columns: List[Dict[str, Any]],
    verdicts: Optional[List[BoundVerdict]] = None,
    flight: Optional[List[Dict[str, Any]]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    traces: Optional[List[Dict[str, Any]]] = None,
    shards: Optional[List[Dict[str, Any]]] = None,
) -> RunRecord:
    """Assemble a RunRecord from measurements (what a result object's
    ``to_run_record()`` returns; :func:`record_run` adds the telemetry).

    ``flight`` takes flight-recorder ``to_dict()`` payloads (one per
    recorded network, e.g. ``session.to_dicts()`` from
    :class:`repro.telemetry.flight.auto`); ``metrics`` a live-metrics
    snapshot (:meth:`repro.metrics.ServeMetrics.snapshot`), serialized
    only when non-empty; ``traces`` sampled query traces
    (:meth:`repro.tracing.QueryTrace.to_dict` payloads), likewise;
    ``shards`` per-worker rows from a sharded serve
    (:func:`repro.shard.report.shards_section` payloads), likewise.
    """
    return RunRecord(
        kind=kind,
        workload=workload,
        columns=columns,
        verdicts=list(verdicts or []),
        flight=list(flight or []),
        metrics=dict(metrics or {}),
        traces=list(traces or []),
        shards=list(shards or []),
    )


def record_run(
    run: Callable[..., Any], *args: Any, **kwargs: Any
) -> Tuple[Any, RunRecord]:
    """``run(*args, **kwargs)`` under a fresh collector: ``(result, record)``.

    The one place a run is wrapped in a collector.  The result says what
    its record holds -- ``result.to_run_record()`` gives kind, workload,
    columns and verdicts (:class:`~repro.analysis.Table2Result`,
    :class:`~repro.serve.ServeReport`, ...) -- and this helper adds what
    only the wrapper sees: the spans, counters and gauges emitted during
    the call and its wall-clock.  A runner that returns more than its
    report is recorded through a lambda::

        report, record = record_run(lambda: run_serving(scheme, graph)[0])

    Library code stays collector-free (zero overhead when detached);
    callers that want a RunRecord come here.
    """
    started = time.perf_counter()
    with collect() as tele:
        result = run(*args, **kwargs)
    record = result.to_run_record()
    record.spans = tele.span_dicts()
    record.counters = dict(tele.counters)
    record.gauges = dict(tele.gauges)
    record.wall_s = time.perf_counter() - started
    return result, record


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
