"""S20 shard pool: N workers, one shared table image, one exact report.

:class:`ShardPool` is the parent side of the sharded serving tier.  On
construction it **seals** the compiled scheme into a shared-memory table
image (:func:`~repro.shard.tables.seal_to_buffers`) and starts ``workers``
workers, each of which attaches the image by manifest name — zero-copy,
near-zero fork cost, and never a pickled packed table on the pipe: the
manifest is the only way tables reach a worker.  ``serve`` then:

1. partitions the pair stream deterministically
   (:func:`~repro.shard.plan.partition_pairs` — same pair, same shard,
   always), so each worker's LRU cache sees every repeat of its pairs;
2. runs the partitions concurrently through the workers' ordinary
   :func:`~repro.serve.harness.serve_pairs` measurement cores;
3. merges the shard reports **exactly** via :meth:`ServeReport.merge`
   (counters sum, sketches bucket-exact merge, SLO recomputed on summed
   counters) and reassembles per-query results in stream order.

Start modes: ``fork`` (default; processes), ``spawn`` (processes with a
fresh interpreter) and ``thread`` (in-process; what the unit tests and
pytest-cov use — coverage does not follow child processes).  All three
hand a worker the same manifest.

Lifecycle: the pool owns the shm segment.  ``close()`` is idempotent,
registered with :mod:`atexit`, and runs unlink even when a worker died
mid-serve — the leaked-segment guard the lifecycle tests exercise.
"""

from __future__ import annotations

import atexit
import queue
import time
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..errors import InputError, ShardError
from ..metrics.serve import EXEMPLAR_LIMIT
from ..serve.compile import CompiledGraphScheme, CompiledScheme, Scheme, compile_scheme
from ..serve.engine import RouteBatch
from ..serve.harness import ServeReport, _route_length_probe
from ..serve.workloads import make_workload
from ..telemetry import events as _tele
from .plan import partition_pairs, shard_of
from .report import payload_report, shards_section
from .tables import SealedTables, seal_to_buffers
from .worker import WorkerSpec, worker_main

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]

_STARTS = ("fork", "spawn", "thread")


class _InlineConn:
    """One end of an in-process duplex channel (``start="thread"``).

    Mirrors the slice of the ``multiprocessing.Connection`` API the pool
    and worker use: ``send``/``recv``/``close``, with ``recv`` raising
    ``EOFError`` after the peer closes — so ``worker_main`` cannot tell
    it is not talking to a real pipe.
    """

    _EOF = object()

    def __init__(self, inbox: "queue.Queue[Any]",
                 outbox: "queue.Queue[Any]") -> None:
        self.inbox = inbox
        self.outbox = outbox
        self._closed = False

    @classmethod
    def pipe(cls) -> Tuple["_InlineConn", "_InlineConn"]:
        a_to_b: "queue.Queue[Any]" = queue.Queue()
        b_to_a: "queue.Queue[Any]" = queue.Queue()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def send(self, obj: Any) -> None:
        if self._closed:
            raise OSError("send on closed _InlineConn")
        self.outbox.put(obj)

    def recv(self) -> Any:
        msg = self.inbox.get()
        if msg is self._EOF:
            raise EOFError
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.outbox.put(self._EOF)


class ShardPool:
    """N serving workers over one sealed table image, merged exactly."""

    def __init__(
        self,
        compiled: CompiledScheme,
        graph: nx.Graph,
        *,
        workers: int,
        start: str = "fork",
        cache_size: int = 4096,
        metrics: bool = True,
        seed: int = 0,
        cache_entries: Optional[Sequence[Tuple[Any, Any]]] = None,
        collect_results: bool = False,
    ) -> None:
        if workers <= 0:
            raise InputError(f"workers must be positive, got {workers}")
        if start not in _STARTS:
            raise InputError(
                f"unknown start mode {start!r}; expected one of {_STARTS}")
        self.compiled = compiled
        self.workers = workers
        self.seed = seed
        self.collect_results = collect_results
        self._closed = False
        self._broken = False

        with _tele.span("shard/seal", workers=workers):
            self.sealed: SealedTables = seal_to_buffers(compiled)

        # Warm-cache entries preload on the worker that will serve the
        # pair (the plan serving partitions by), so a restored pool hits
        # at least as often as the run that saved the cache.
        preload: List[List[Tuple[Any, Any]]] = [[] for _ in range(workers)]
        for key, value in cache_entries or ():
            preload[shard_of(key[0], key[1], workers)].append((key, value))

        self._conns: List[Any] = []
        self._procs: List[Any] = []
        try:
            for s in range(workers):
                spec = WorkerSpec(
                    start=start,
                    manifest=self.sealed.manifest,
                    cache_size=cache_size,
                    metrics=metrics,
                    collect_results=collect_results,
                    cache_entries=preload[s] or None,
                )
                if start == "thread":
                    import threading

                    parent, child = _InlineConn.pipe()
                    proc: Any = threading.Thread(
                        target=worker_main, args=(child, spec, graph),
                        daemon=True,
                    )
                else:
                    import multiprocessing as mp

                    ctx = mp.get_context(start)
                    parent, child = ctx.Pipe(duplex=True)
                    proc = ctx.Process(
                        target=worker_main, args=(child, spec, graph),
                        daemon=True,
                    )
                proc.start()
                if start != "thread":
                    child.close()  # parent keeps only its end
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- serving -------------------------------------------------------------

    def serve(
        self,
        pairs: Sequence[Pair],
        *,
        workload: str = "pairs",
        seed: Optional[int] = None,
        slo: bool = True,
        slo_bound: Optional[float] = None,
        slo_target: float = 0.99,
    ) -> Tuple[ServeReport, Optional[RouteBatch]]:
        """Serve a pair stream across the workers; merged report back.

        The parent resolves the SLO default (paper ``4k-3``) before
        dispatch so every shard scores against the same bound, then
        merges with :meth:`ServeReport.merge`.  When the pool was built
        with ``collect_results``, the second element is the per-query
        results reassembled in stream order (position-for-position
        comparable with a single-process run); otherwise ``None``.
        """
        if self._closed:
            raise ShardError("serve on a closed ShardPool")
        if self._broken:
            raise ShardError("ShardPool is broken (a worker died)")
        if seed is None:
            seed = self.seed
        if (slo and slo_bound is None
                and isinstance(self.compiled, CompiledGraphScheme)):
            slo_bound = 4.0 * self.compiled.k - 3.0
        params = {
            "workload": workload,
            "seed": seed,
            "slo": slo,
            "slo_bound": slo_bound,
            "slo_target": slo_target,
        }
        slices, indices = partition_pairs(pairs, self.workers)
        with _tele.span("shard/serve", workers=self.workers,
                        queries=len(pairs)):
            for conn, part in zip(self._conns, slices):
                self._send(conn, ("serve", part, params))
            payloads = self._gather("report")

        reports, batches = zip(*map(payload_report, payloads, slices))
        merged = ServeReport.merge(reports, exemplar_limit=EXEMPLAR_LIMIT)
        self._last_reports = list(reports)
        results = (RouteBatch.interleaved(list(pairs), batches, indices)
                   if self.collect_results else None)
        return merged, results

    def collect_cache_entries(self) -> List[Tuple[Any, Any]]:
        """Every worker's LRU decisions, oldest-first per shard.

        Shards are disjoint by plan, so concatenation loses nothing; a
        future pool (any worker count) re-partitions on preload.
        """
        if self._closed or self._broken:
            raise ShardError("cache collection on a closed/broken pool")
        for conn in self._conns:
            self._send(conn, ("cache",))
        return [entry for body in self._gather("cache") for entry in body]

    @property
    def shard_reports(self) -> List[ServeReport]:
        """Per-shard reports from the most recent ``serve`` call."""
        return list(getattr(self, "_last_reports", []))

    # -- pipe plumbing -------------------------------------------------------

    def _send(self, conn: Any, msg: Tuple[Any, ...]) -> None:
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            self._broken = True
            raise ShardError(f"worker pipe closed unexpectedly: {exc}")

    def _gather(self, want: str) -> List[Any]:
        """One ``want`` reply per worker, in shard order.

        A worker that *reports* a failure (``("error", traceback)``) is
        alive and in protocol, so the other workers' replies to the same
        request are read before it is raised: no pipe is left holding a
        stale reply, and the pool stays usable.  Only a dead pipe or an
        out-of-protocol reply breaks the pool.
        """
        bodies: List[Any] = []
        failures: List[str] = []
        for conn in self._conns:
            try:
                tag, body = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                self._broken = True
                raise ShardError(
                    "worker died before replying (EOF on pipe); the pool's "
                    "close() still unlinks the shared segment")
            if tag == "error":
                failures.append(body)
            elif tag != want:
                self._broken = True
                raise ShardError(f"protocol error: expected {want!r}, "
                                 f"got {tag!r}")
            else:
                bodies.append(body)
        if failures:
            raise ShardError("worker failed:\n" + "\n".join(failures))
        return bodies

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers and destroy the shared segment (idempotent).

        Runs the unlink even when workers are already dead or never
        started — the pool owns the segment, so no exit path may leak
        it.  Registered with :mod:`atexit` as a crash backstop.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive() and hasattr(proc, "terminate"):
                    proc.terminate()  # pragma: no cover - stuck worker
                    proc.join(timeout=1.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already torn down
                    pass
        finally:
            self.sealed.close()
            self.sealed.unlink()
            atexit.unregister(self.close)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# One-shot entry point (the CLI path)
# ---------------------------------------------------------------------------

def run_sharded(
    scheme: Scheme,
    graph: nx.Graph,
    *,
    workers: int,
    workload: str = "uniform",
    queries: int = 1000,
    seed: int = 0,
    cache_size: int = 4096,
    zipf_alpha: float = 1.1,
    slo_bound: Optional[float] = None,
    slo_target: float = 0.99,
    start: str = "fork",
    cache_entries: Optional[Sequence[Tuple[Any, Any]]] = None,
    cache_out: Optional[List[Tuple[Any, Any]]] = None,
    collect_results: bool = False,
) -> Tuple[ServeReport, Optional[RouteBatch]]:
    """Sharded twin of :func:`repro.serve.run_serving`: compile once, seal,
    fan the seeded workload over ``workers`` engines, merge exactly.

    The workload is generated in the parent from the same
    ``(workload, seed)`` stream as a single-process run, so the merged
    report is field-identical to :func:`run_serving`'s on the same
    arguments (wall-clock columns aside).  The merged report carries
    its ``shard_rows`` — one row per worker (partition size, per-shard
    throughput, cache counters) plus the table-image
    provenance — which become the RunRecord ``shards`` section.
    """
    with _tele.span("shard/run", workers=workers, workload=workload,
                    queries=queries):
        started = time.perf_counter()
        compiled = compile_scheme(scheme, graph)
        with ShardPool(
            compiled, graph,
            workers=workers, start=start,
            cache_size=cache_size, seed=seed,
            cache_entries=cache_entries,
            collect_results=collect_results,
        ) as pool:
            compile_s = time.perf_counter() - started
            with _tele.span("serve/workload", workload=workload):
                pairs = make_workload(
                    workload, graph, compiled.nodes, queries, seed,
                    zipf_alpha=zipf_alpha,
                    route_length=_route_length_probe(compiled, graph),
                )
            merged, results = pool.serve(
                pairs, workload=workload, seed=seed,
                slo_bound=slo_bound, slo_target=slo_target,
            )
            if cache_out is not None:
                # Caller persists warm caches: harvest before close.
                cache_out.extend(pool.collect_cache_entries())
            merged.compile_s = compile_s
            merged.throughput_qps = (merged.queries / merged.serve_s
                                     if merged.serve_s > 0 else 0.0)
            merged.shard_rows = shards_section(pool.shard_reports,
                                               pool.sealed.manifest)
        return merged, results
