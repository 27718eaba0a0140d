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
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple

import networkx as nx

from ..errors import InputError

NodeId = Hashable
INF = math.inf


def dijkstra(
    graph: nx.Graph,
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
    dist: Dict[NodeId, float] = {}
    parent: Dict[NodeId, Optional[NodeId]] = {}
    heap: list = []
    for s in sources:
        dist[s] = 0.0
        parent[s] = None
        heapq.heappush(heap, (0.0, repr(s), s))
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, INF):
            continue
        if predicate is not None and not predicate(u, d):
            continue
        for v in graph.neighbors(u):
            nd = d + float(graph[u][v].get("weight", 1.0))
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, repr(v), v))
    return dist, parent


def distances_to_set(graph: nx.Graph, targets: Iterable[NodeId]) -> Dict[NodeId, float]:
    """``d_G(v, S)`` for every vertex ``v`` (used for pivot distances)."""
    targets = list(targets)
    if not targets:
        return {v: INF for v in graph.nodes}
    dist, _ = dijkstra(graph, targets)
    return {v: dist.get(v, INF) for v in graph.nodes}


def nearest_in_set(
    graph: nx.Graph, targets: Iterable[NodeId]
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """For every vertex: distance to the nearest target and *which* target.

    Implemented as multi-source Dijkstra that propagates the source identity
    along shortest-path trees (the classical "Voronoi" construction).
    """
    targets = list(targets)
    dist: Dict[NodeId, float] = {}
    owner: Dict[NodeId, Optional[NodeId]] = {}
    heap: list = []
    for s in targets:
        dist[s] = 0.0
        owner[s] = s
        heapq.heappush(heap, (0.0, repr(s), s, s))
    while heap:
        d, _, u, src = heapq.heappop(heap)
        if d > dist.get(u, INF) or owner.get(u) != src:
            continue
        for v in graph.neighbors(u):
            nd = d + float(graph[u][v].get("weight", 1.0))
            if nd < dist.get(v, INF):
                dist[v] = nd
                owner[v] = src
                heapq.heappush(heap, (nd, repr(v), v, src))
    full_dist = {v: dist.get(v, INF) for v in graph.nodes}
    full_owner = {v: owner.get(v) for v in graph.nodes}
    return full_dist, full_owner


def bounded_bellman_ford(
    graph: nx.Graph,
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

    Returns ``(dist, parent, iterations_used)``; iterations stop early once a
    full pass changes nothing (then ``d^{(t)} = d^{(hops)}`` for all larger
    ``t``), which the caller may *not* use to reduce charged rounds -- the
    exploration still occupies ``hops`` rounds in the distributed execution.
    """
    if hops < 0:
        raise InputError("hops must be non-negative")
    dist: Dict[NodeId, float] = dict(sources)
    parent: Dict[NodeId, Optional[NodeId]] = {s: None for s in sources}
    frontier = set(sources)
    iterations = 0
    for _ in range(hops):
        if not frontier:
            break
        iterations += 1
        updates: Dict[NodeId, Tuple[float, NodeId]] = {}
        for u in frontier:
            du = dist[u]
            if forward_if is not None and not forward_if(u, du):
                continue
            for v in graph.neighbors(u):
                nd = du + float(graph[u][v].get("weight", 1.0))
                if nd < dist.get(v, INF) and nd < updates.get(v, (INF, None))[0]:
                    updates[v] = (nd, u)
        frontier = set()
        for v, (nd, via) in updates.items():
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = via
                frontier.add(v)
    return dist, parent, iterations


def hop_counts(graph: nx.Graph, source: NodeId) -> Dict[NodeId, int]:
    """Minimum number of hops of a *weighted shortest* path from ``source``.

    Computed by Dijkstra on the lexicographic key (distance, hops), so ties
    in distance resolve to the fewest-hops path -- this is the quantity
    ``h(u, v)`` bounded by Claim 8.
    """
    dist: Dict[NodeId, Tuple[float, int]] = {source: (0.0, 0)}
    heap = [(0.0, 0, repr(source), source)]
    while heap:
        d, h, _, u = heapq.heappop(heap)
        if (d, h) > dist.get(u, (INF, 0)):
            continue
        for v in graph.neighbors(u):
            cand = (d + float(graph[u][v].get("weight", 1.0)), h + 1)
            if cand < dist.get(v, (INF, 0)):
                dist[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], repr(v), v))
    return {v: dh[1] for v, dh in dist.items()}


def shortest_path_diameter(graph: nx.Graph) -> int:
    """``S``: the maximum, over all pairs, of the hops of a shortest path.

    Exact and O(n * m log n); only call on small graphs (tests, reporting).
    """
    worst = 0
    for source in graph.nodes:
        hops = hop_counts(graph, source)
        worst = max(worst, max(hops.values()))
    return worst


def hop_diameter(graph: nx.Graph) -> int:
    """Exact hop-diameter ``D`` of the underlying unweighted graph."""
    return nx.diameter(graph)
