"""S19 two-tier trace sampling: seeded head rate + worst-stretch tail.

**Head tier** — each query is retained with probability ``rate`` via
geometric gap-skipping: the seeded rng draws the ordinal of the *next*
sampled query (one uniform per sampled query, not per query).  The
sampled set is a pure function of ``(seed, rate)`` over query ordinals,
so it is deterministic under a fixed seed (property-tested) and does not
depend on how the stream was split into calls.  That is why the engine
never consults the sampler while serving: after each call it hands
:meth:`Tracer.record_picks` the keys it served, which advances the
ordinal counter and sets the picks aside for :meth:`Tracer.finalize`.
At ``rate == 0`` no rng is consumed at all.  The attached cost is the
perf ledger's ``tracing.overhead_share``.

**Tail tier** — :class:`TailBuffer` is a bounded min-heap over offered
queries keyed by stretch (failed queries key as ``+inf``, so they always
out-rank successes).  It retains the true worst-stretch queries of the
stream regardless of the head rate.  Eviction tie-breaks go through an
*injected* rng that is drawn on **every** offer — accepted or not — so the
retained set is a pure function of the seed and the offer sequence, never
of heap internals (the reproducibility regression test pins it).

The hot-path contract mirrors ``ServeMetrics``: the engine pays one
``is not None`` check per call; trace objects are only ever built for
sampled queries, at ``finalize``, by a *replay* of the already-answered
query through the engine's own walk (:mod:`repro.tracing.recorder`).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import TYPE_CHECKING, Any, Hashable, List, Optional, Sequence, Tuple

from ..serve.engine import RouteBatch
from .model import QueryTrace
from .recorder import replay_query

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.engine import ServeEngine, ServeResult

NodeId = Hashable


class TailEntry:
    """One retained worst-stretch / failed query in the tail buffer."""

    __slots__ = ("ordinal", "source", "target", "key", "failed")

    def __init__(
        self,
        ordinal: int,
        source: NodeId,
        target: NodeId,
        key: float,
        failed: bool,
    ) -> None:
        self.ordinal = ordinal
        self.source = source
        self.target = target
        self.key = key
        self.failed = failed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        what = "failed" if self.failed else f"stretch={self.key:.4f}"
        return f"TailEntry(#{self.ordinal} {self.source!r}->{self.target!r} {what})"


class TailBuffer:
    """Bounded retention of the worst-stretch and failed queries.

    ``offer`` is O(log limit); ties on the stretch key are broken by a
    draw from the injected rng (one draw per offer, unconditionally) so
    two runs with the same seed and offer sequence retain the identical
    set — see the module docstring.
    """

    def __init__(
        self,
        limit: int = 16,
        *,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> None:
        self.limit = int(limit)
        self._rng = rng if rng is not None else random.Random(seed)
        # Min-heap of (key, tie, ordinal, source, target, failed); the
        # ordinal makes comparisons total even for exotic vertex ids.
        self._heap: List[tuple] = []
        self.offered = 0

    def __len__(self) -> int:
        return len(self._heap)

    def offer(
        self,
        ordinal: int,
        source: NodeId,
        target: NodeId,
        stretch: Optional[float],
        *,
        failed: bool = False,
    ) -> bool:
        """Offer one query; returns True when it is (now) retained.

        The tie-break draw happens before the capacity check so the rng
        stream depends only on the offer sequence (bugfix: an accepted/
        rejected-dependent draw made retention depend on heap state).
        """
        self.offered += 1
        tie = self._rng.random()
        if self.limit <= 0:
            return False
        if failed:
            key = float("inf")
        elif stretch is None:
            return False
        else:
            key = float(stretch)
        item = (key, tie, ordinal, source, target, failed)
        heap = self._heap
        if len(heap) < self.limit:
            heapq.heappush(heap, item)
            return True
        if (key, tie, ordinal) > heap[0][:3]:
            heapq.heapreplace(heap, item)
            return True
        return False

    def worst(self, n: Optional[int] = None) -> List[TailEntry]:
        """Retained entries, worst first (failures before any success)."""
        ranked = sorted(self._heap, reverse=True)
        if n is not None:
            ranked = ranked[:n]
        return [TailEntry(ordinal=o, source=s, target=t, key=k, failed=f)
                for k, _tie, o, s, t, f in ranked]

    def ordinals(self) -> List[int]:
        return [item[2] for item in sorted(self._heap, reverse=True)]


class Tracer:
    """Two-tier query sampler + bounded trace store for one engine.

    Attach via ``ServeEngine(..., tracer=...)`` or
    ``run_serving(..., tracer=...)``.  ``seq`` counts every query the
    engine answers (the query *ordinal*); ``trace_id(ordinal)`` is the
    stable id ``{prefix}-{ordinal:06d}`` shared with Prometheus exemplars
    and ``repro explain``.  ``rate`` must lie in ``[0, 1]`` and both
    limits must be ``>= 0`` (``ValueError`` otherwise).
    """

    def __init__(
        self,
        rate: float = 0.01,
        seed: int = 0,
        *,
        tail_limit: int = 16,
        head_limit: int = 256,
        prefix: str = "q",
        tail_seed: Optional[int] = None,
    ) -> None:
        self.rate = float(rate)
        if not 0.0 <= self.rate <= 1.0:  # NaN fails this too
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for name, limit in (("tail_limit", tail_limit),
                            ("head_limit", head_limit)):
            if limit < 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")
        self.seed = int(seed)
        self.prefix = prefix
        self.head_limit = int(head_limit)
        self._head_rng = random.Random(seed)
        # The tail tie-break rng is seeded independently of the head rng
        # so head sampling never perturbs tail retention (and vice versa).
        self.tail = TailBuffer(
            tail_limit,
            rng=random.Random(seed + 1 if tail_seed is None else tail_seed),
        )
        self.seq = 0
        self.head: List[QueryTrace] = []
        self.head_dropped = 0
        # Head picks awaiting replay, as (ordinal, source, target): the
        # trace itself materializes in :meth:`finalize`, mirroring how
        # ServeMetrics defers hop counting to scrape time.
        self.pending: List[tuple] = []
        # Ordinal of the next head-sampled query (-1: never).  Drawing the
        # gap to the next pick instead of one Bernoulli coin per query
        # costs one uniform per *sampled* query.
        self._next_pick = self._draw_next(-1) if self.rate > 0.0 else -1

    def _draw_next(self, current: int) -> int:
        """Ordinal of the first sampled query after ``current``.

        The gap is geometric with success probability ``rate``: one
        uniform per sampled query, and the resulting set is distributed
        exactly as per-query Bernoulli coins."""
        if self.rate >= 1.0:
            return current + 1
        u = 1.0 - self._head_rng.random()  # (0, 1]: log never sees 0
        gap = math.log(u) / math.log1p(-self.rate)
        # Subnormal rates overflow the gap to +inf: effectively "never".
        return current + 1 + int(gap) if math.isfinite(gap) else -1

    # -- serving side --------------------------------------------------------

    def record_picks(self, keys: Sequence[Tuple[NodeId, NodeId]]) -> None:
        """Count the queries one engine call served and keep its head picks.

        ``keys[i]`` is the query with ordinal ``seq + i``; ``seq`` advances
        past all of them, and every picked one joins :attr:`pending` for
        replay at :meth:`finalize`.  Picks depend on ordinals alone, so a
        stream gets the same picks however it is split into calls.
        ``head_limit`` bounds the pending list too, so a high rate cannot
        grow memory past the limit.
        """
        base = self.seq
        self.seq = end = base + len(keys)
        pick = self._next_pick
        while 0 <= pick < end:
            if len(self.head) + len(self.pending) >= self.head_limit:
                self.head_dropped += 1
            else:
                source, target = keys[pick - base]
                self.pending.append((pick, source, target))
            pick = self._draw_next(pick)
        self._next_pick = pick

    def trace_id(self, ordinal: int) -> str:
        return f"{self.prefix}-{ordinal:06d}"

    def capture_pair(
        self,
        engine: "ServeEngine",
        source: NodeId,
        target: NodeId,
        *,
        via: str = "head",
        ordinal: int,
    ) -> Optional[QueryTrace]:
        """Replay query ``ordinal`` into a :class:`QueryTrace` (stored in
        :attr:`head` when ``via`` is ``"head"``)."""
        if via == "head" and len(self.head) >= self.head_limit:
            self.head_dropped += 1
            return None
        trace = replay_query(engine, source, target,
                             trace_id=self.trace_id(ordinal), via=via)
        if via == "head":
            self.head.append(trace)
        return trace

    # -- post-run side -------------------------------------------------------

    def finalize(
        self,
        engine: "ServeEngine",
        results: Sequence["ServeResult"],
        stretches: Optional[Sequence[Optional[float]]] = None,
        *,
        graph: Any = None,
        base: int = 0,
    ) -> List[QueryTrace]:
        """Offer the run to the tail tier and assemble the final traces.

        ``base`` is the tracer's ``seq`` before the run started, aligning
        ``results[i]`` with ordinal ``base + i``.  Pending head picks are
        replayed first, then tail-retained queries not already
        head-sampled; when ``graph`` is given, every trace gets its exact
        stretch attribution.
        """
        if self.pending:
            pending, self.pending = self.pending, []
            for ordinal, source, target in pending:
                self.capture_pair(engine, source, target, ordinal=ordinal)
        batch = RouteBatch.of(results)
        for i, (key, status) in enumerate(zip(batch.keys, batch.status)):
            stretch = stretches[i] if stretches is not None else None
            self.tail.offer(base + i, key[0], key[1], stretch,
                            failed=not status & RouteBatch.OK)
        traces = list(self.head)
        have = {t.trace_id for t in traces}
        for entry in self.tail.worst():
            tid = self.trace_id(entry.ordinal)
            if tid in have:
                for t in traces:
                    if t.trace_id == tid:
                        t.via = "head+tail"
                        break
                continue
            trace = self.capture_pair(engine, entry.source, entry.target,
                                      via="tail", ordinal=entry.ordinal)
            if trace is not None:
                traces.append(trace)
                have.add(tid)
        if graph is not None:
            from .attribution import attribute_traces
            attribute_traces(graph, traces)
        traces.sort(key=lambda t: t.trace_id)
        return traces
