"""The executable specification of the ``repro.graphs`` kernel layer.

PR 18's ``dijkstra`` / ``nearest_in_set`` / ``bounded_bellman_ford`` /
``hop_counts`` (``graphs/paths.py``) and its rooted-tree functions
(``graphs/trees.py``), kept verbatim: they read the ``networkx`` views edge
by edge and rebuild ``children_map`` in every tree function, which is what
made them slow and what makes them obviously right.  ``tests/
test_graphs_kernels.py`` holds the snapshot kernels and ``tree_profile`` to
them, the way the differential suite holds ``Network`` to
``ReferenceNetwork``.

One thing differs from PR 18: ``bounded_bellman_ford``'s frontier is a list
(vertices in the order they were improved, seeded in ``sources`` order)
where it was a ``set``, whose order made ``parent`` depend on
``PYTHONHASHSEED`` wherever two candidates tie.  Do not optimise this file.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from repro.errors import InputError

NodeId = Hashable
INF = math.inf
ParentMap = Mapping[NodeId, Optional[NodeId]]


# -- graphs/paths.py ---------------------------------------------------------

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
    frontier = list(sources)
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
        frontier = []
        for v, (nd, via) in updates.items():
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = via
                frontier.append(v)
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


# -- graphs/trees.py ---------------------------------------------------------

def tree_root(parent: ParentMap) -> NodeId:
    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise InputError(f"expected exactly one root, found {len(roots)}")
    return roots[0]


def children_map(parent: ParentMap) -> Dict[NodeId, List[NodeId]]:
    children: Dict[NodeId, List[NodeId]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            if p not in children:
                raise InputError(f"parent {p!r} of {v!r} missing from tree")
            children[p].append(v)
    for v in children:
        children[v].sort(key=repr)
    return children


def depths(parent: ParentMap) -> Dict[NodeId, int]:
    root = tree_root(parent)
    children = children_map(parent)
    out = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for c in children[v]:
            out[c] = out[v] + 1
            stack.append(c)
    if len(out) != len(parent):
        raise InputError("parent map contains a cycle")
    return out


def postorder(parent: ParentMap) -> List[NodeId]:
    """Vertices in post-order (children before parents)."""
    root = tree_root(parent)
    children = children_map(parent)
    order: List[NodeId] = []
    stack: List[Tuple[NodeId, bool]] = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
        else:
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
    return order


def subtree_sizes(parent: ParentMap) -> Dict[NodeId, int]:
    children = children_map(parent)
    sizes: Dict[NodeId, int] = {}
    for v in postorder(parent):
        sizes[v] = 1 + sum(sizes[c] for c in children[v])
    return sizes


def heavy_children(parent: ParentMap) -> Dict[NodeId, Optional[NodeId]]:
    """The child with the largest subtree, per vertex (None for leaves).

    Ties break deterministically by vertex repr, matching the distributed
    implementation so the two can be compared field by field.
    """
    children = children_map(parent)
    sizes = subtree_sizes(parent)
    heavy: Dict[NodeId, Optional[NodeId]] = {}
    for v, kids in children.items():
        heavy[v] = max(kids, key=lambda c: (sizes[c], repr(c))) if kids else None
    return heavy


def light_edge_lists(parent: ParentMap) -> Dict[NodeId, List[Tuple[NodeId, NodeId]]]:
    """For each vertex ``y``: the light edges on the root-to-``y`` path.

    An edge ``(u, v)`` (v a child of u) is *light* when ``v`` is not the
    heavy child of ``u``.  Any root path has at most ``log2 n`` light edges,
    because crossing a light edge at least halves the subtree size.
    """
    root = tree_root(parent)
    children = children_map(parent)
    heavy = heavy_children(parent)
    lists: Dict[NodeId, List[Tuple[NodeId, NodeId]]] = {root: []}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in children[u]:
            inherited = lists[u]
            lists[v] = inherited if v == heavy[u] else inherited + [(u, v)]
            stack.append(v)
    return lists


def dfs_intervals(parent: ParentMap) -> Dict[NodeId, Tuple[int, int]]:
    """DFS entry/exit numbering with subtree-size-consistent ranges.

    Vertex ``v`` gets ``[enter, exit]`` with
    ``exit - enter + 1 == subtree_size(v)``; descendants' intervals nest.
    The DFS visits children in the deterministic port order used everywhere
    in this library (sorted by repr), matching Algorithm 4's distributed
    assignment so the two can be compared exactly.
    """
    root = tree_root(parent)
    children = children_map(parent)
    sizes = subtree_sizes(parent)
    intervals: Dict[NodeId, Tuple[int, int]] = {root: (1, sizes[root])}
    stack = [root]
    while stack:
        u = stack.pop()
        enter, _ = intervals[u]
        offset = enter + 1
        for v in children[u]:
            intervals[v] = (offset, offset + sizes[v] - 1)
            offset += sizes[v]
            stack.append(v)
    return intervals


def tree_path(parent: ParentMap, u: NodeId, v: NodeId) -> List[NodeId]:
    """The unique u-v path in the tree (via lowest common ancestor)."""
    depth = depths(parent)
    a, b = u, v
    left: List[NodeId] = [a]
    right: List[NodeId] = [b]
    while depth[a] > depth[b]:
        a = parent[a]
        left.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        right.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        left.append(a)
        right.append(b)
    return left + right[-2::-1]
