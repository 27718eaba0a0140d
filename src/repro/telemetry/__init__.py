"""Unified telemetry (S11): spans, counters, RunRecords, bound checking.

The observability layer every execution funnels through:

* :mod:`~repro.telemetry.events` -- the zero-cost-when-disabled event bus
  (:func:`span`, :class:`phase`, :func:`emit`, :func:`gauge`,
  :func:`collect`), the only
  way to listen to a network: a :class:`Listener` also hears every round
  the engines close and every round they charge;
* :mod:`~repro.telemetry.collector` -- the default
  :class:`TelemetryCollector` building a span tree with per-span round
  attribution and a ``profile()`` renderer;
* :mod:`~repro.telemetry.runrecord` -- the :class:`RunRecord` manifest
  (provenance + measurements + verdicts, JSON/JSONL round-trip) and
  :func:`record_run`, the one recorded-run wrapper;
* :mod:`~repro.telemetry.bounds` -- the paper-bound checker evaluating
  Theorems 2/3 closed forms against measured columns;
* :mod:`~repro.telemetry.flight` -- the opt-in flight recorder sampling
  per-vertex memory and per-edge congestion round by round, one recorder
  per network that runs inside a ``flight.auto()`` block.

Host time across commits is not this package's job: the perf ledger
(``benchmarks/perf``) measures it and its ``compare.py`` diffs two run
sets; the simulated columns are pinned by
``tests/test_experiments_golden.py``.  See docs/observability.md for the
span/counter naming scheme and the RunRecord JSON schema.
"""

from .bounds import (
    BoundVerdict,
    check_claim8_hop_depth,
    check_graph_columns,
    check_table1_relations,
    check_table2_relations,
    check_tree_columns,
    failures,
    verdict_from_dict,
)
from .collector import SpanNode, TelemetryCollector, render_profile
from .events import Listener, attach, collect, detach, emit, enabled, gauge, phase, span
from .flight import FlightConfig, FlightRecorder
from .runrecord import RunRecord, make_run_record, peak_rss_kb, record_run

__all__ = [
    "BoundVerdict",
    "FlightConfig",
    "FlightRecorder",
    "Listener",
    "RunRecord",
    "SpanNode",
    "TelemetryCollector",
    "attach",
    "check_claim8_hop_depth",
    "check_graph_columns",
    "check_table1_relations",
    "check_table2_relations",
    "check_tree_columns",
    "collect",
    "detach",
    "emit",
    "enabled",
    "failures",
    "gauge",
    "make_run_record",
    "peak_rss_kb",
    "phase",
    "record_run",
    "render_profile",
    "span",
    "verdict_from_dict",
]
