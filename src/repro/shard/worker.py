"""S20 shard worker: one process (or thread), one engine, one pipe.

A worker is deliberately thin: it **attaches** the shared table image
from the manifest in its :class:`WorkerSpec` (the only way tables reach
it; it never receives the packed objects), builds an ordinary
:class:`~repro.serve.ServeEngine` with its own LRU cache and optional
:class:`~repro.metrics.ServeMetrics` bundle, and then answers a tiny
message protocol over its pipe:

========  ==============================================================
op        reply
========  ==============================================================
"serve"   ``("report", payload)`` — runs the partition through
          :func:`~repro.serve.harness.serve_pairs` (the exact
          single-process measurement path) with the per-call stream
          parameters (workload/seed/SLO) carried in the message, and
          ships the report (plus the result batch's columns when
          ``collect_results``)
"cache"   ``("cache", entries)`` — the LRU's decisions oldest-first,
          for merged warm-cache persistence (``--cache-file``)
"stop"    none; the worker cleans up and exits
"crash"   none; dies via ``os._exit`` *skipping* all cleanup — a test
          hook proving the pool's leaked-segment guard
========  ==============================================================

Any serve-time exception is reported as ``("error", traceback)`` rather
than killing the worker, so one poisoned query slice cannot strand the
pool (the pool drains every reply of the request, raises, and stays
usable).  ``worker_main`` runs equally as a forked/spawned process target
or on an in-process thread (the pool's ``start="thread"`` mode, which is
also what lets coverage see this file — pytest-cov does not follow child
processes); the one thing it does differently is that a process worker
freezes its start-up heap out of the cyclic collector before serving.
"""

from __future__ import annotations

import gc
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.serve import ServeMetrics
from ..serve.engine import DecisionCache, ServeEngine
from ..serve.harness import serve_pairs
from .report import report_payload
from .tables import AttachedTables, from_buffers


@dataclass
class WorkerSpec:
    """Everything a worker needs, picklable and packed-table-free.

    ``manifest`` is the shared-memory table manifest (attach-by-name).
    The *workload* seed rides on each serve message instead: it names
    the shared stream and must match across shards for report merging.
    """

    start: str
    manifest: Dict[str, Any]
    cache_size: int = 4096
    metrics: bool = True
    collect_results: bool = False
    cache_entries: Optional[List[Tuple[Any, Any]]] = field(default=None)


def worker_main(conn: Any, spec: WorkerSpec, graph: Any) -> None:
    """Worker entry point (process target or thread body)."""
    attached: Optional[AttachedTables] = None
    try:
        # Attach by manifest name only; the pool keeps the segment's
        # resource-tracker registration (see tables.from_buffers).
        attached = from_buffers(spec.manifest)
        cache = DecisionCache(spec.cache_size)
        if spec.cache_entries:
            cache.preload(spec.cache_entries)
        engine = ServeEngine(attached.compiled, cache=cache)
        # One bundle for the worker's lifetime, folding each serve op's
        # report like a pre-warmed single-process engine's; attached, it
        # makes every shard report carry its worst-stretch exemplars.
        metrics = ServeMetrics() if spec.metrics else None
        if spec.start != "thread":
            # A process worker owns its collector, and everything alive
            # here (the attached tables, the preloaded cache, whatever
            # heap came along with a fork) lives as long as it does:
            # frozen, no collection walks it or writes to a page still
            # shared with the parent (a pass keeps its results in a few
            # columns, but every serve message unpickles a tuple per
            # pair).  Thread workers share their caller's process and
            # leave its collector alone.
            gc.collect()
            gc.freeze()

        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            if op == "serve":
                try:
                    pairs, params = msg[1], msg[2]
                    report, results = serve_pairs(
                        engine, graph, pairs,
                        workload=params["workload"],
                        seed=params["seed"],
                        slo=params["slo"],
                        slo_bound=params["slo_bound"],
                        slo_target=params["slo_target"],
                        metrics=metrics,
                    )
                    payload = report_payload(
                        report,
                        results if spec.collect_results else None)
                    conn.send(("report", payload))
                except Exception:
                    conn.send(("error", traceback.format_exc()))
            elif op == "cache":
                conn.send(("cache", engine.cache.entries()))
            elif op == "stop":
                break
            elif op == "crash":  # pragma: no cover - exercised via fork
                os._exit(17)
            else:
                conn.send(("error", f"unknown worker op {op!r}"))
    finally:
        if attached is not None:
            attached.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
