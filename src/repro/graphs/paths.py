"""Centralized shortest-path reference algorithms.

These are the ground-truth oracles against which the distributed algorithms
are validated, plus the *hop-bounded* Bellman-Ford that both the paper's
definitions (t-bounded distances ``d^{(t)}``, Section 2) and the distributed
explorations rely on.

Notation from the paper:

* ``d_G(u, v)``        -- weighted shortest-path distance;
* ``d^{(t)}_G(u, v)``  -- the length of the shortest path with at most ``t``
  edges ("hops"); note this is *not* a metric;
* ``h(u, v)``          -- the number of edges of the (minimum-hop) shortest
  path realizing ``d_G(u, v)`` (Appendix B uses vertices-on-path; we use
  edge count and adjust constants accordingly).
"""

from __future__ import annotations

import heapq
import math
from types import MappingProxyType
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple, Union

import networkx as nx

from ..errors import InputError

NodeId = Hashable
INF = math.inf

#: One neighbour of a row: ``(v, weight, repr(v))``.
Arc = Tuple[NodeId, float, str]


class Adjacency:
    """An immutable snapshot of a graph's weighted adjacency, the form every
    kernel below runs on.

    ``rows[u]`` is a tuple of ``(v, weight, repr(v))`` in
    ``graph.neighbors(u)`` order (so every tie resolves as it would reading
    the graph), with ``weight`` already ``float(data.get("weight", 1.0))``
    and ``repr(v)`` the heap tie-break; ``rows`` itself iterates in
    ``graph.nodes`` order.  Built in O(n + m).

    The snapshot is a *value*: whoever runs a kernel per source builds it
    once and passes it down (every kernel takes a graph or an
    ``Adjacency``).  It is never cached on or keyed by the graph -- a
    ``networkx`` graph carries no version stamp a cache could be
    invalidated by -- so it reflects the graph as it was when built.
    """

    __slots__ = ("rows",)

    def __init__(self, graph: nx.Graph) -> None:
        reprs = {v: repr(v) for v in graph}
        self.rows: Mapping[NodeId, Tuple[Arc, ...]] = MappingProxyType({
            u: tuple(
                [(v, float(data.get("weight", 1.0)), reprs[v])
                 for v, data in nbrs.items()]
            )
            for u, nbrs in graph.adjacency()
        })

    @classmethod
    def of(cls, graph: "GraphLike") -> "Adjacency":
        """``graph`` itself when it already is a snapshot, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)


GraphLike = Union[nx.Graph, Adjacency]


def _require_vertex(rows: Mapping[NodeId, Tuple[Arc, ...]], v: NodeId) -> None:
    if v not in rows:
        raise InputError(f"source {v!r} is not a vertex of the graph")


def dijkstra(
    graph: GraphLike,
    sources: Iterable[NodeId],
    *,
    predicate: Optional[Callable[[NodeId, float], bool]] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """Multi-source Dijkstra with an optional expansion predicate.

    ``predicate(v, dist)`` decides whether ``v`` *continues the exploration*
    (the "limited Dijkstra exploration" used to grow clusters in Appendix B:
    vertices that fail the predicate still receive a distance but do not
    relax their neighbours).  Returns ``(dist, parent)``; unreached vertices
    are absent.
    """
    rows = Adjacency.of(graph).rows
    dist: Dict[NodeId, float] = {}
    parent: Dict[NodeId, Optional[NodeId]] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for s in sources:
        _require_vertex(rows, s)
        dist[s] = 0.0
        parent[s] = None
        push(heap, (0.0, repr(s), s))
    known = dist.get
    while heap:
        d, _, u = pop(heap)
        if d > dist[u]:
            continue
        if predicate is not None and not predicate(u, d):
            continue
        for v, weight, tie in rows[u]:
            nd = d + weight
            if nd < known(v, INF):
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, tie, v))
    return dist, parent


def nearest_in_set(
    graph: GraphLike, targets: Iterable[NodeId]
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """For every vertex: distance to the nearest target and *which* target.

    Implemented as multi-source Dijkstra that propagates the source identity
    along shortest-path trees (the classical "Voronoi" construction).
    """
    rows = Adjacency.of(graph).rows
    dist: Dict[NodeId, float] = {}
    owner: Dict[NodeId, Optional[NodeId]] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for s in targets:
        _require_vertex(rows, s)
        dist[s] = 0.0
        owner[s] = s
        push(heap, (0.0, repr(s), s, s))
    known = dist.get
    while heap:
        d, _, u, src = pop(heap)
        if d > dist[u] or owner[u] != src:
            continue
        for v, weight, tie in rows[u]:
            nd = d + weight
            if nd < known(v, INF):
                dist[v] = nd
                owner[v] = src
                push(heap, (nd, tie, v, src))
    full_dist = {v: dist.get(v, INF) for v in rows}
    full_owner = {v: owner.get(v) for v in rows}
    return full_dist, full_owner


def bounded_bellman_ford(
    graph: GraphLike,
    sources: Mapping[NodeId, float],
    hops: int,
    *,
    forward_if: Optional[Callable[[NodeId, float], bool]] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]], int]:
    """Hop-bounded multi-source Bellman-Ford: ``d^{(hops)}`` from ``sources``.

    ``sources`` maps each source to its initial estimate (0 for true sources;
    the distributed algorithms seed intermediate estimates).  ``forward_if``
    is the *limited exploration* rule of Appendix B: a vertex relaxes its
    neighbours in an iteration only when ``forward_if(v, estimate)`` holds
    (applied uniformly, sources included; in the paper's uses the exploration
    root trivially satisfies the rule).

    The frontier is scanned in the order vertices were improved (first the
    sources, in ``sources`` order), and on equal candidates the first one
    scanned wins, so ``parent`` does not depend on ``PYTHONHASHSEED``.

    Returns ``(dist, parent, iterations_used)``; iterations stop early once a
    full pass changes nothing (then ``d^{(t)} = d^{(hops)}`` for all larger
    ``t``), which the caller may *not* use to reduce charged rounds -- the
    exploration still occupies ``hops`` rounds in the distributed execution.
    """
    if hops < 0:
        raise InputError("hops must be non-negative")
    rows = Adjacency.of(graph).rows
    dist: Dict[NodeId, float] = dict(sources)
    parent: Dict[NodeId, Optional[NodeId]] = {}
    for s in dist:
        _require_vertex(rows, s)
        parent[s] = None
    frontier = list(dist)
    known = dist.get
    iterations = 0
    for _ in range(hops):
        if not frontier:
            break
        iterations += 1
        # This pass's best candidate per improved vertex and who offered it;
        # ``dist`` stays fixed during the scan, so every candidate is kept
        # against the same estimates.
        best: Dict[NodeId, float] = {}
        via: Dict[NodeId, NodeId] = {}
        offered = best.get
        for u in frontier:
            du = dist[u]
            if forward_if is not None and not forward_if(u, du):
                continue
            for v, weight, _tie in rows[u]:
                nd = du + weight
                if nd < known(v, INF) and nd < offered(v, INF):
                    best[v] = nd
                    via[v] = u
        dist.update(best)
        parent.update(via)
        frontier = list(best)
    return dist, parent, iterations


def hop_counts(graph: GraphLike, source: NodeId) -> Dict[NodeId, int]:
    """Minimum number of hops of a *weighted shortest* path from ``source``.

    Computed by Dijkstra on the lexicographic key (distance, hops), so ties
    in distance resolve to the fewest-hops path -- this is the quantity
    ``h(u, v)`` bounded by Claim 8.
    """
    rows = Adjacency.of(graph).rows
    _require_vertex(rows, source)
    dist: Dict[NodeId, Tuple[float, int]] = {source: (0.0, 0)}
    heap = [(0.0, 0, repr(source), source)]
    unknown = (INF, 0)
    while heap:
        d, h, _, u = heapq.heappop(heap)
        if (d, h) > dist[u]:
            continue
        for v, weight, tie in rows[u]:
            cand = (d + weight, h + 1)
            if cand < dist.get(v, unknown):
                dist[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], tie, v))
    return {v: dh[1] for v, dh in dist.items()}
