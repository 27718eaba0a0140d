#!/usr/bin/env python
"""Trace a serving run and explain its worst queries (S19).

Compiles a k=2 Thorup-Zwick scheme, serves a zipf workload with the
two-tier tracer attached (1% seeded head sample + a worst-stretch tail
buffer that always keeps the most expensive queries), exports the
traces to JSONL, then replays the worst three through the explain
pipeline: per-level stretch attribution that splits actual - optimal
across the hierarchy level each query committed to, exactly (the
residual is zero by construction, and the RunRecord verdict checks it).
On the way it reads the served results the way a consumer should: as
the columns of the ``RouteBatch``, building one result object, not 2000.

Run:  python examples/explain_worst_queries.py
"""

import tempfile
from pathlib import Path

from repro.graphs import random_connected_graph
from repro.serve import RouteBatch, run_serving
from repro.tracing import (
    Tracer,
    read_traces_jsonl,
    run_explain,
    write_traces_jsonl,
)
from repro.tz import build_centralized_scheme


def main() -> None:
    graph = random_connected_graph(150, seed=3)
    scheme = build_centralized_scheme(graph, 2, seed=3)

    tracer = Tracer(rate=0.01, seed=3, tail_limit=8, prefix="zipf-3")
    report, batch = run_serving(scheme, graph, workload="zipf", queries=2000,
                                seed=3, tracer=tracer)
    print(f"served {report.queries} queries, "
          f"traced {len(report.traces)} "
          f"(head sample @1% + worst-stretch tail)")
    describe_costliest(batch)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.jsonl"
        write_traces_jsonl(path, [t.to_dict() for t in report.traces])
        traces = read_traces_jsonl(path)

    text, record = run_explain(traces, worst=3, source="traces.jsonl")
    print()
    print(text)
    verdict = record.verdicts[0]
    print(f"attribution exact: residual={verdict.measured} "
          f"(verdict {verdict.name}, passed={verdict.passed})")


def describe_costliest(batch: RouteBatch) -> None:
    """Scan the lengths and status columns; index the batch once."""
    cached = sum(1 for status in batch.status if status & RouteBatch.CACHED)
    costliest = max(range(len(batch)), key=batch.lengths.__getitem__)
    result = batch[costliest]  # the one ServeResult this run builds
    print(f"{len(batch.flat)} path vertices in one flat column, "
          f"{cached} answers from the decision cache, "
          f"{len(batch.errors)} failures")
    print(f"costliest route: {result.source} -> {result.target}, "
          f"{result.hops} hops, length {result.length:.3f}")


if __name__ == "__main__":
    main()
