"""S16 batched query engine over packed routing tables.

``ServeEngine.route`` answers one ``source -> target`` query against a
:mod:`compiled <repro.serve.compile>` scheme; ``route_many`` answers a
batch with the **count-and-continue** failure policy a serving tier needs
(a ``RoutingFailure`` becomes a recorded failure in the returned
:class:`RouteBatch`, never an abort).  The engine is differentially
tested against the reference simulator (``route_in_graph`` /
``route_in_tree``): on every query it must return the byte-identical
path *and* raise byte-identical ``RoutingFailure``s (same message, same
partial path) -- see ``tests/test_serve_differential.py``.

Per-query work:

1. **decision** (graph schemes): scan the destination label's packed
   entries in level order and commit to a tree exactly like the source
   rule in :func:`repro.routing.router.route_in_graph` (``mode="first"``
   is the 4k-3 analysis; ``mode="best"`` the source-side refinement).
2. **forwarding**: a tight loop over the packed tree's flat arrays --
   integer compares plus one dict probe for the light edge -- with the
   weight of every hop precomputed at compile time.

Successful queries are memoized whole (path and length) in a bounded LRU
keyed by ``(source, target)``: routing is deterministic per engine, so a
hot pair (Zipf workloads) skips both the decision scan and the hop loop.
Failures are never cached -- they re-raise through the reference code
path every time, keeping the differential contract trivially intact.

The two forwarding loops are kept separate on purpose: ``route_in_tree``
checks the next hop's table membership *inside* the hop's own iteration
(before appending it to the path), while ``route_in_graph`` only notices a
table-less vertex at the start of the *next* iteration (after appending) --
collapsing them would silently change failure paths and budget accounting.
"""

from __future__ import annotations

import json
from array import array
from collections import OrderedDict
from collections.abc import Sequence
from operator import eq
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..errors import RoutingFailure

#: On-disk format version of :meth:`DecisionCache.save` (2: the file
#: names what its entries were computed on).
CACHE_FORMAT = 2

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.serve import ServeMetrics
    from ..tracing.sampler import Tracer
from .compile import (
    NO_VERTEX,
    CompiledGraphScheme,
    CompiledScheme,
    CompiledTreeScheme,
    PackedLabel,
    PackedTree,
)

NodeId = Hashable


class ServeResult:
    """Outcome of one served query (success or recorded failure).

    A ``__slots__`` class rather than a dataclass: ``route`` /
    ``route_recorded`` build one per query, and on short routes the
    constructor is a measurable share of the per-query budget.
    ``route_many`` builds none: its :class:`RouteBatch` makes one of
    these when indexed.
    """

    __slots__ = ("source", "target", "path", "length", "ok", "error",
                 "cached")

    def __init__(
        self,
        source: NodeId,
        target: NodeId,
        path: List[NodeId],
        length: float,
        ok: bool,
        error: Optional[str] = None,
        cached: bool = False,
    ) -> None:
        self.source = source
        self.target = target
        self.path = path
        self.length = length
        self.ok = ok
        self.error = error
        self.cached = cached

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"failed: {self.error}"
        return (f"ServeResult({self.source!r}->{self.target!r} "
                f"hops={self.hops} length={self.length:.3f} {state})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServeResult):
            return NotImplemented
        return (self.source, self.target, self.path, self.length,
                self.ok, self.error) == (
            other.source, other.target, other.path, other.length,
            other.ok, other.error)


class RouteBatch(Sequence):
    """The results of one :meth:`ServeEngine.route_many` pass, as columns.

    A pass over ``n`` queries keeps six containers alive, not two per
    query: a result object and a path list a query have the cyclic
    collector re-walk the whole batch as it grows (45-48% of a hot
    pass, docs/performance.md).

    * ``keys`` -- the ``(source, target)`` pairs, in stream order;
    * ``flat`` -- every path back to back, vertex ids as the tables hold
      them (delivered paths, and the partial paths failures got to);
    * ``offsets`` -- ``array('L')`` of ``n + 1`` positions: query ``i``'s
      path is ``flat[offsets[i]:offsets[i + 1]]``;
    * ``lengths`` -- ``array('d')`` of weighted path lengths (0.0 for a
      failure);
    * ``status`` -- one byte a query: :attr:`OK` | :attr:`CACHED`;
    * ``errors`` -- ``{i: failure text}``, holding exactly the failures.

    Readers that want counts read the columns.  As a read-only sequence
    the batch also *is* the list of :class:`ServeResult` a
    ``route_recorded`` loop builds -- ``len``, ``batch[i]``, slices (a
    list), iteration, ``==`` with a list or a batch on either side --
    building each result when it is asked for (a path slice and a
    constructor, ~0.8 us at 8 vertices a path), and again when asked
    again: index for the few exemplars, not in a loop over the stream.
    """

    __slots__ = ("keys", "offsets", "flat", "lengths", "status", "errors")

    #: ``status`` bits: delivered / answered from the decision cache.
    OK = 1
    CACHED = 2

    def __init__(
        self,
        keys: List[Tuple[NodeId, NodeId]],
        offsets: Optional["array[int]"] = None,
        flat: Optional[List[NodeId]] = None,
        lengths: Optional["array[float]"] = None,
        status: Optional[bytearray] = None,
        errors: Optional[Dict[int, str]] = None,
    ) -> None:
        self.keys = keys
        self.offsets = array("L", (0,)) if offsets is None else offsets
        self.flat = [] if flat is None else flat
        self.lengths = array("d") if lengths is None else lengths
        self.status = bytearray() if status is None else status
        self.errors = {} if errors is None else errors

    @classmethod
    def of(cls, results: Iterable[ServeResult]) -> "RouteBatch":
        """``results`` itself when it is a batch, else the batch holding
        them (what lets column readers take a reference list of
        ``route_recorded`` results)."""
        if isinstance(results, cls):
            return results
        batch = cls([])
        for r in results:
            batch.keys.append((r.source, r.target))
            batch.push(r)
        return batch

    def push(self, result: ServeResult) -> None:
        """Append the columns of ``result`` (its key is already held)."""
        if not result.ok:
            self.errors[len(self.status)] = result.error
        self.flat.extend(result.path)
        self.offsets.append(len(self.flat))
        self.lengths.append(result.length)
        self.status.append(self.OK * result.ok | self.CACHED * result.cached)

    def columns(self) -> tuple:
        """Everything but ``keys``, in constructor order: what crosses a
        worker pipe (the parent holds the pairs it sent)."""
        return (self.offsets, self.flat, self.lengths, self.status,
                self.errors)

    @classmethod
    def interleaved(
        cls,
        keys: List[Tuple[NodeId, NodeId]],
        parts: "Sequence[RouteBatch]",
        indices: "Sequence[Sequence[int]]",
    ) -> "RouteBatch":
        """The stream-order batch of per-shard batches: ``parts[s]``'s
        query ``t`` answered ``keys[indices[s][t]]``."""
        shard_at = array("L", bytes(8 * len(keys)))
        local_at = array("L", bytes(8 * len(keys)))
        batch = cls(keys)
        for s, (part, index) in enumerate(zip(parts, indices)):
            for t, i in enumerate(index):
                shard_at[i], local_at[i] = s, t
            for t, text in part.errors.items():
                batch.errors[index[t]] = text
        offsets, flat, lengths, status, _ = batch.columns()
        for s, t in zip(shard_at, local_at):
            part = parts[s]
            flat.extend(part.flat[part.offsets[t]:part.offsets[t + 1]])
            offsets.append(len(flat))
            lengths.append(part.lengths[t])
            status.append(part.status[t])
        return batch

    def __len__(self) -> int:
        return len(self.status)

    def _result(self, i: int) -> ServeResult:
        source, target = self.keys[i]
        status = self.status[i]
        return ServeResult(
            source, target, self.flat[self.offsets[i]:self.offsets[i + 1]],
            self.lengths[i], bool(status & self.OK), self.errors.get(i),
            bool(status & self.CACHED))

    def __getitem__(self, index):
        n = len(self.status)
        if isinstance(index, slice):
            return [self._result(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("RouteBatch index out of range")
        return self._result(index)

    def __iter__(self) -> Iterator[ServeResult]:
        return map(self._result, range(len(self.status)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RouteBatch, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RouteBatch({len(self)} queries, {len(self.errors)} failed, "
                f"{len(self.flat)} path vertices)")


class DecisionCache:
    """A bounded LRU of complete routing decisions.

    Values are ``(path_tuple, length)`` for successfully served
    ``(source, target)`` pairs; per engine the route is deterministic, so
    a hit answers the query outright.  Backed by
    :class:`collections.OrderedDict`, whose C-level linked list
    makes both the move-to-end on hit and the evict-oldest on overflow
    O(1).  (A plain insertion-ordered dict looks equivalent but is not:
    repeated delete-front/insert-back leaves tombstones that
    ``next(iter(...))`` must skip, degrading eviction to O(n).)
    ``maxsize <= 0`` disables caching.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        elif len(data) >= self.maxsize:
            data.popitem(last=False)
        data[key] = value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- persistence (S20 warm restarts) -------------------------------------

    def entries(self) -> List[Tuple[tuple, tuple]]:
        """Cached decisions oldest-first (the LRU order save/load keeps)."""
        return [(key, value) for key, value in self._data.items()]

    def preload(self, entries: Iterable[Tuple[tuple, tuple]]) -> None:
        """Insert decisions (oldest-first) without touching hit counters."""
        for key, (path, length) in entries:
            self.put(tuple(key), (tuple(path), length))

    def save(self, path: str, *, fingerprint: Optional[str] = None) -> None:
        """Persist the cache as versioned JSON (id-codec encoded).

        Node ids round-trip through the serialization codec
        (:func:`~repro.routing.serialization.encode_id`), so int / str /
        tuple ids all survive; entries are written oldest-first so
        ``load`` rebuilds the identical LRU eviction order.  Hit/miss
        counters are run-scoped and deliberately not persisted.
        ``fingerprint`` names what the entries were computed on (``repro
        serve`` passes the table image's digest and the source-rule
        mode): a cached entry is a finished answer, so it is only true
        of those tables.
        """
        from ..routing.serialization import encode_id

        blob = {
            "format": CACHE_FORMAT,
            "fingerprint": fingerprint,
            "maxsize": self.maxsize,
            "entries": [
                [encode_id(key[0]), encode_id(key[1]),
                 [encode_id(v) for v in value[0]], value[1]]
                for key, value in self._data.items()
            ],
        }
        with open(path, "w") as fp:
            # not json.dump: that streams through the pure-Python encoder
            fp.write(json.dumps(blob))

    @classmethod
    def load(cls, path: str, maxsize: Optional[int] = None, *,
             fingerprint: Optional[str] = None) -> "DecisionCache":
        """Rebuild a saved cache (``maxsize`` overrides the saved bound).

        A restarted server that serves through the loaded cache starts at
        the original run's warm hit rate instead of paying the cold-start
        window again (tested in ``tests/test_serve_harness.py``).  Given
        a ``fingerprint``, a file saved under any other one (or none) is
        an :class:`~repro.errors.InputError`: its paths would be served
        as answers about tables they were never computed on.
        """
        from ..errors import InputError
        from ..routing.serialization import decode_id

        with open(path) as fp:
            try:
                blob = json.load(fp)
            except ValueError as exc:  # JSONDecodeError: truncated, not JSON
                raise InputError(
                    f"decision-cache file {path} is not valid JSON: {exc}"
                ) from exc
        if not isinstance(blob, dict):
            raise InputError(
                f"decision-cache file {path} holds a JSON "
                f"{type(blob).__name__}, not an object")
        if blob.get("format") != CACHE_FORMAT:
            raise InputError(
                f"decision-cache file {path}: format "
                f"{blob.get('format')!r} != {CACHE_FORMAT} "
                "(re-save with this version)")
        if fingerprint is not None and blob.get("fingerprint") != fingerprint:
            raise InputError(
                f"decision-cache file {path} was computed on "
                f"{blob.get('fingerprint')!r}, not on the tables being "
                f"served ({fingerprint!r}); its entries are answers about "
                "another graph (delete it or name another file)")
        try:
            cache = cls(maxsize if maxsize is not None else blob["maxsize"])
            cache.preload(
                ((decode_id(src), decode_id(tgt)),
                 (tuple(decode_id(v) for v in path_), length))
                for src, tgt, path_, length in blob["entries"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(
                f"decision-cache file {path} is malformed: {exc!r}"
            ) from exc
        return cache


class ServeEngine:
    """Serve ``route(source, target)`` queries from a compiled scheme.

    ``metrics`` optionally attaches a live
    :class:`~repro.metrics.serve.ServeMetrics` bundle; the engine then
    feeds query/failure/cache counters and per-hop counts.  The hook is
    zero-overhead when absent -- one ``is not None`` check per batch
    (``route_many``) or per recorded query.

    ``tracer`` optionally attaches a :class:`~repro.tracing.Tracer`
    (S19).  The serving loops never consult it: once a call has served
    its queries it hands their keys to ``Tracer.record_picks`` (once per
    ``route_many`` batch, once per ``route_recorded`` query), which picks
    by ordinal alone.  Picked queries are replayed into
    :class:`~repro.tracing.QueryTrace` objects at ``Tracer.finalize``,
    through this engine's own decision and walks (the perf ledger's
    ``tracing.overhead_share`` measures what attaching one costs).
    """

    def __init__(
        self,
        compiled: CompiledScheme,
        *,
        mode: str = "first",
        cache_size: int = 4096,
        cache: Optional[DecisionCache] = None,
        max_hops: Optional[int] = None,
        metrics: Optional["ServeMetrics"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if mode not in ("first", "best"):
            raise ValueError(f"unknown mode {mode!r}")
        self.compiled = compiled
        self.mode = mode
        #: ``cache`` (e.g. a :meth:`DecisionCache.load`-ed warm cache)
        #: takes precedence over ``cache_size``.
        self.cache = cache if cache is not None else DecisionCache(cache_size)
        if max_hops is not None and max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
        #: Hops one query may take, by the reference routers' rule: an
        #: explicit ``max_hops`` (0 included) or the scheme's default.
        self.budget = (max_hops if max_hops is not None
                       else compiled.default_budget)
        self.metrics = metrics
        self.tracer = tracer
        self.failures = 0
        self.queries = 0
        self._is_tree = isinstance(compiled, CompiledTreeScheme)

    # -- single query --------------------------------------------------------

    def route(self, source: NodeId, target: NodeId) -> ServeResult:
        """Answer one query; raises :class:`RoutingFailure` like the
        reference router (use :meth:`route_many` for count-and-continue)."""
        self.queries += 1
        if self._is_tree:
            return self._route_tree(source, target)
        return self._route_graph(source, target)

    def route_recorded(self, source: NodeId, target: NodeId) -> ServeResult:
        """Answer one query, converting failures into a recorded result."""
        misses = self.cache.misses
        try:
            result = self.route(source, target)
        except RoutingFailure as exc:
            self.failures += 1
            result = ServeResult(
                source=source, target=target,
                path=list(exc.path) if exc.path else [source],
                length=0.0, ok=False, error=str(exc),
            )
        m = self.metrics
        if m is not None:
            m.record_result(result.ok, len(result.path) - 1, result.cached,
                            self.cache.misses - misses)
        if self.tracer is not None:
            self.tracer.record_picks(((source, target),))
        return result

    # -- batch ---------------------------------------------------------------

    def route_many(
        self,
        queries: Iterable[Tuple[NodeId, NodeId]],
        boundaries: Optional["array[float]"] = None,
    ) -> RouteBatch:
        """Answer a batch under the count-and-continue failure policy.

        Semantically identical to ``[route_recorded(u, v) for u, v in
        queries]`` (the differential suite certifies this, and the
        returned :class:`RouteBatch` compares equal to that list), but
        the results are written as columns -- no object per query outlives
        its iteration -- and the graph path is a specialized loop with
        the per-query dispatch, cache bookkeeping, and exception plumbing
        hoisted out: this is the serving tier's hot entry point.

        ``boundaries`` (an ``array('d')``) makes the loop its own
        stopwatch: one ``perf_counter`` reading is appended before each
        query and one after the last, so query ``i`` was served between
        readings ``i`` and ``i + 1`` (:func:`~repro.serve.harness.
        serve_pairs` turns the gaps into the latency sketch).  Without
        it the loop pays one local-boolean test per query.
        """
        batch = RouteBatch(list(queries))
        if self._is_tree:
            self._route_many_tree(batch, boundaries)
        else:
            self._route_many_graph(batch, boundaries)
        return batch

    def _route_many_tree(
        self,
        batch: RouteBatch,
        boundaries: Optional["array[float]"],
    ) -> None:
        # Exact tree routing has no cache or decision scan to hoist: its
        # batch is the single-query path in a loop.
        timed = boundaries is not None
        for u, v in batch.keys:
            if timed:
                boundaries.append(perf_counter())
            batch.push(self.route_recorded(u, v))
        if timed:
            boundaries.append(perf_counter())

    def _route_many_graph(
        self,
        batch: RouteBatch,
        boundaries: Optional["array[float]"],
    ) -> None:
        compiled: CompiledGraphScheme = self.compiled
        cache = self.cache
        cache_on = cache.maxsize > 0
        data = cache._data
        move_to_end = data.move_to_end
        popitem = data.popitem
        maxsize = cache.maxsize
        decide = self._decide
        forward = _forward_graph
        decisions = compiled.decisions
        first = self.mode == "first"
        budget = self.budget
        timed = boundaries is not None
        stamp = boundaries.append if timed else None
        # One result is four column appends (RouteBatch): every path goes
        # into the one flat list, a cache hit's straight from its tuple.
        flat = batch.flat
        extend = flat.extend
        mark = batch.offsets.append
        measure = batch.lengths.append
        flag = batch.status.append
        errors = batch.errors
        delivered = RouteBatch.OK
        from_cache = RouteBatch.OK | RouteBatch.CACHED
        served = 0
        hits = 0
        misses = 0
        for key in batch.keys:
            if timed:
                stamp(perf_counter())
            source, target = key
            served += 1
            if source == target:
                flat.append(source)
                mark(len(flat))
                measure(0.0)
                flag(delivered)
                continue
            if cache_on:
                entry = data.get(key)
                if entry is not None:
                    move_to_end(key)
                    hits += 1
                    extend(entry[0])
                    mark(len(flat))
                    measure(entry[1])
                    flag(from_cache)
                    continue
                misses += 1
            try:
                # Fast path for the default source rule; any miss (or
                # "best" mode) drops to _decide, which re-runs the lookup
                # and raises the reference's exact error.
                decision = None
                if first:
                    cands = decisions.get(target)
                    if cands is not None:
                        for cand in cands:
                            if source in cand[0]:
                                decision = cand[1]
                                break
                if decision is None:
                    decision = decide(compiled, source, target)[1]
                path, length = forward(compiled, decision[0], decision[1],
                                       source, target, budget=budget)
            except RoutingFailure as exc:
                errors[served - 1] = str(exc)
                extend(exc.path or (source,))
                mark(len(flat))
                measure(0.0)
                flag(0)
                continue
            if cache_on:
                if len(data) >= maxsize:
                    popitem(last=False)
                data[key] = (tuple(path), length)
            extend(path)
            mark(len(flat))
            measure(length)
            flag(delivered)
        if timed:
            stamp(perf_counter())
        # Which queries the tracer picks depends on their ordinals only,
        # so it learns of them once, after the loop (and not at all when
        # a KeyError aborted the batch, exactly like the counters below).
        if self.tracer is not None:
            self.tracer.record_picks(batch.keys)
        failed = len(errors)
        self.queries += served
        self.failures += failed
        cache.hits += hits
        cache.misses += misses
        # Live-metrics hook (zero-overhead when absent): counters fold at
        # batch end from the already-accumulated locals, and hop counting
        # over the finished batch is deferred to scrape time -- per-query
        # Python ops inside the loop above, or even an inline C-level
        # Counter sweep here, would show up in the perf ledger's
        # metrics.overhead_share.
        m = self.metrics
        if m is not None:
            m.record_batch(served, failed, hits, misses)
            m.defer_path_lengths(batch)

    # -- graph scheme --------------------------------------------------------

    def _route_graph(self, source: NodeId, target: NodeId) -> ServeResult:
        compiled: CompiledGraphScheme = self.compiled
        if source == target:
            return ServeResult(source=source, target=target, path=[source],
                               length=0.0, ok=True)

        cache_on = self.cache.maxsize > 0
        if cache_on:
            entry = self.cache.get((source, target))
            if entry is not None:
                return ServeResult(source=source, target=target,
                                   path=list(entry[0]), length=entry[1],
                                   ok=True, cached=True)

        _, (tree, label) = self._decide(compiled, source, target)
        path, length = _forward_graph(
            compiled, tree, label, source, target,
            budget=self.budget,
        )
        if cache_on:
            self.cache.put((source, target), (tuple(path), length))
        return ServeResult(source=source, target=target, path=path,
                           length=length, ok=True)

    def _decide(
        self,
        compiled: CompiledGraphScheme,
        source: NodeId,
        target: NodeId,
    ) -> Tuple[int, Tuple[PackedTree, PackedLabel]]:
        """The source rule: pick the committed tree for this query.

        Mirrors ``route_in_graph``: scan usable label entries in level
        order, keep those whose tree contains the source, score by the
        advertised source-root-target upper bound; ``"first"`` commits to
        the first candidate, ``"best"`` minimizes ``(bound, level)``.
        Runs over the compiler's flat ``decisions`` table and returns the
        committed candidate's index in ``decisions[target]`` (what the
        tracer reads its provenance by: two levels may name one tree)
        with its ``(tree, label)`` pair.
        """
        cands = compiled.decisions.get(target)
        if cands is None:
            raise KeyError(target)  # parity: scheme.labels[target]
        if source not in compiled.table_ids:
            raise KeyError(source)  # parity: scheme.tables[source]
        if self.mode == "first":
            for i, cand in enumerate(cands):
                if source in cand[0]:
                    return i, cand[1]
        else:
            best: Optional[Tuple[float, int, int, tuple]] = None
            for i, (local, pair, root_distance, level, dist_to_root) \
                    in enumerate(cands):
                li = local.get(source)
                if li is None:
                    continue
                bound = root_distance[li] + dist_to_root
                if best is None or (bound, level) < (best[0], best[1]):
                    best = (bound, level, i, pair)
            if best is not None:
                return best[2], best[3]
        raise RoutingFailure(
            f"no common cluster tree between {source!r} and {target!r} "
            "(top-level cluster should always be shared)"
        )

    # -- tree scheme ---------------------------------------------------------

    def _route_tree(self, source: NodeId, target: NodeId) -> ServeResult:
        compiled: CompiledTreeScheme = self.compiled
        label = compiled.labels[target]  # parity: scheme.labels[target]
        path, length = _forward_tree(
            compiled.tree, label, source,
            budget=self.budget,
        )
        return ServeResult(source=source, target=target, path=path,
                           length=length, ok=True)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "queries": self.queries,
            "failures": self.failures,
            "cache_size": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": round(self.cache.hit_rate, 4),
        }


# ---------------------------------------------------------------------------
# The hop loops (module level: they read no engine state, and the trace
# replay in repro.tracing.recorder walks through them too)
# ---------------------------------------------------------------------------

def _forward_graph(
    compiled: CompiledGraphScheme,
    tree: PackedTree,
    label: PackedLabel,
    source: NodeId,
    target: NodeId,
    *,
    budget: int,
) -> Tuple[List[NodeId], float]:
    """The ``route_in_graph`` hop loop over packed arrays."""
    (enter, exit_, parent, parent_id, parent_w,
     heavy, heavy_id, heavy_w, local, tree_id) = tree.hot
    light = label.light
    dest_enter = label.enter

    path = [source]
    length = 0.0
    at_id = source
    li = local.get(source, NO_VERTEX)
    for _ in range(budget):
        if li == NO_VERTEX:
            if at_id not in compiled.table_ids:
                raise KeyError(at_id)  # parity: scheme.tables[at]
            raise RoutingFailure(
                f"vertex {at_id!r} has no table for tree "
                f"{tree_id!r}", path
            )
        e = enter[li]
        if e == dest_enter:
            if at_id != target:
                raise RoutingFailure(
                    f"tree routing terminated at {at_id!r}, "
                    f"not {target!r}", path
                )
            return path, length
        if e <= dest_enter <= exit_[li]:
            hop = light.get(li)
            if hop is None:
                nid = heavy_id[li]
                if nid is None:
                    raise RoutingFailure(
                        f"vertex {at_id!r} is a leaf yet the target "
                        f"(enter={dest_enter}) is strictly inside its "
                        "interval"
                    )
                nli, w = heavy[li], heavy_w[li]
            else:
                nli, nid, w = hop
        else:
            nid = parent_id[li]
            if nid is None:
                raise RoutingFailure(
                    f"vertex {at_id!r} is the root yet the target "
                    f"(enter={dest_enter}) is outside its interval"
                )
            nli, w = parent[li], parent_w[li]
        if w is None:
            raise RoutingFailure(
                f"({at_id!r}, {nid!r}) is not an edge", path
            )
        length += w
        li, at_id = nli, nid
        path.append(at_id)
    raise RoutingFailure(f"exceeded hop budget {budget}", path)


def _forward_tree(
    tree: PackedTree,
    label: PackedLabel,
    source: NodeId,
    *,
    budget: int,
) -> Tuple[List[NodeId], float]:
    """The ``route_in_tree`` hop loop over packed arrays.

    Unlike the graph loop, the next hop's table membership is checked
    before the hop is appended (same iteration, same budget charge),
    and arrival is wherever the forwarding rule stops -- the reference
    never compares against ``target`` here.  Weighted serving of a hop
    that is not a graph edge charges 1.0 (the reference would surface
    whatever its user-supplied ``weight_of`` raises; valid schemes
    never take that path).
    """
    (enter, exit_, parent, parent_id, parent_w,
     heavy, heavy_id, heavy_w, local, _tree_id) = tree.hot
    light = label.light
    dest_enter = label.enter

    li = local.get(source)
    if li is None:
        raise KeyError(source)  # parity: scheme.tables[source]
    path = [source]
    length = 0.0
    at_id = source
    for _ in range(budget):
        e = enter[li]
        if e == dest_enter:
            return path, length
        if e <= dest_enter <= exit_[li]:
            hop = light.get(li)
            if hop is None:
                nid = heavy_id[li]
                if nid is None:
                    raise RoutingFailure(
                        f"vertex {at_id!r} is a leaf yet the target "
                        f"(enter={dest_enter}) is strictly inside its "
                        "interval"
                    )
                nli, w = heavy[li], heavy_w[li]
            else:
                nli, nid, w = hop
        else:
            nid = parent_id[li]
            if nid is None:
                raise RoutingFailure(
                    f"vertex {at_id!r} is the root yet the target "
                    f"(enter={dest_enter}) is outside its interval"
                )
            nli, w = parent[li], parent_w[li]
        if nli == NO_VERTEX:
            raise RoutingFailure(
                f"forwarded to {nid!r}, which has no table", path
            )
        length += w if w is not None else 1.0
        li, at_id = nli, nid
        path.append(at_id)
    raise RoutingFailure(f"exceeded hop budget {budget}", path)
