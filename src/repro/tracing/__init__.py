"""S19: sampled per-query tracing and stretch forensics for `repro.serve`.

Layout (docs/observability.md, "Per-query tracing & stretch forensics"):

* :mod:`model` — ``QueryTrace`` / ``HopSpan``: one sampled query's hop
  spans annotated with the committed decision's provenance.
* :mod:`sampler` — ``Tracer`` (seeded head sampling at a configurable
  rate) + ``TailBuffer`` (bounded worst-stretch / failed-query
  retention with injected-rng tie-breaks).
* :mod:`recorder` — off-hot-path replay of a served query into a trace
  (byte-identical decisions and failure messages to ``ServeEngine``).
* :mod:`attribution` — exact split of ``actual - optimal`` per
  hierarchy level and per ascent/descent phase.
* :mod:`export` — JSONL persistence (``repro serve --trace-out``).
* :mod:`explain` — the ``repro explain`` attribution tables +
  RunRecord kind ``explain``.
"""

from .attribution import attribute, attribute_traces
from .explain import per_level_table, run_explain, select_traces
from .export import read_traces_jsonl, write_traces_jsonl
from .model import HopSpan, QueryTrace
from .recorder import replay_query
from .sampler import TailBuffer, TailEntry, Tracer

__all__ = [
    "HopSpan",
    "QueryTrace",
    "TailBuffer",
    "TailEntry",
    "Tracer",
    "attribute",
    "attribute_traces",
    "per_level_table",
    "read_traces_jsonl",
    "replay_query",
    "run_explain",
    "select_traces",
    "write_traces_jsonl",
]
