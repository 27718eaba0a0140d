"""Pivots, clusters, and cluster trees (centralized reference).

Definitions from Appendix B (Eq. 1) and [TZ01a/b]:

* the *i-pivot* of ``v`` is the nearest vertex of ``A_i``;
* the *cluster* of ``u ∈ A_i \\ A_{i+1}`` is
  ``C(u) = {v : d(u, v) < d(v, A_{i+1})}``;
* the *bunch* of ``v`` is ``B(v) = {u : v ∈ C(u)}`` and Claim 6 bounds
  ``|B(v)| <= 4 n^{1/k} log n`` whp.

Clusters are *shortest-path closed*: if ``v ∈ C(u)`` then every vertex on a
shortest u-v path is in ``C(u)``, so the limited Dijkstra exploration from
``u`` (vertices outside the cluster do not relax further) computes exactly
``C(u)`` together with a spanning shortest-path tree of it -- the tree the
routing scheme routes in.

Everything here is centralized ground truth: the distributed constructions
of :mod:`repro.core` are validated against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import InvariantViolation
from ..graphs.paths import Adjacency, GraphLike, dijkstra, nearest_in_set
from .hierarchy import Hierarchy

NodeId = Hashable
INF = math.inf


@dataclass
class PivotInfo:
    """Per-level pivots: ``dist[i][v] = d(v, A_i)`` and the realizing vertex."""

    dist: List[Dict[NodeId, float]]
    pivot: List[Dict[NodeId, Optional[NodeId]]]

    def next_level_distance(self, i: int, v: NodeId) -> float:
        """``d(v, A_{i+1})`` with ``d(v, A_k) = ∞``."""
        if i + 1 >= len(self.dist):
            return INF
        return self.dist[i + 1][v]


def compute_pivots(graph: GraphLike, hierarchy: Hierarchy) -> PivotInfo:
    """Exact pivots for every level: k multi-source Dijkstra runs."""
    adj = Adjacency.of(graph)
    dist: List[Dict[NodeId, float]] = []
    pivot: List[Dict[NodeId, Optional[NodeId]]] = []
    for i in range(hierarchy.k):
        level = hierarchy.set_at(i)
        d, owner = nearest_in_set(adj, level)
        dist.append(d)
        pivot.append(owner)
    return PivotInfo(dist=dist, pivot=pivot)


@dataclass
class ClusterTree:
    """The cluster of ``root`` as a shortest-path tree.

    ``dist[v] = d(root, v)`` for every member; ``parent`` spans the members
    (``root -> None``) using only graph edges.
    """

    root: NodeId
    level: int
    dist: Dict[NodeId, float]
    parent: Dict[NodeId, Optional[NodeId]]

    def __contains__(self, v: NodeId) -> bool:
        return v in self.dist


def exact_cluster_tree(
    graph: GraphLike,
    root: NodeId,
    level: int,
    pivots: PivotInfo,
) -> ClusterTree:
    """Compute ``C(root)`` by limited Dijkstra (Eq. 1).

    A vertex continues the exploration iff it is a member, i.e. its distance
    from ``root`` is strictly below its distance to ``A_{level+1}``.  A
    caller looping over roots passes an :class:`Adjacency`.
    """
    adj = Adjacency.of(graph)
    if level + 1 < len(pivots.dist):
        next_dist = pivots.dist[level + 1]
    else:  # d(v, A_k) = ∞
        next_dist = dict.fromkeys(adj.rows, INF)

    def in_cluster(v: NodeId, d: float) -> bool:
        return d < next_dist[v]

    dist, parent = dijkstra(adj, [root], predicate=in_cluster)
    members = {v: d for v, d in dist.items() if d < next_dist[v]}
    if root not in members:
        raise InvariantViolation(f"cluster root {root!r} excluded itself")
    tree_parent = {v: parent[v] for v in members}
    for v, p in tree_parent.items():
        if p is not None and p not in members:
            raise InvariantViolation(
                f"cluster of {root!r} is not shortest-path closed at {v!r}"
            )
    return ClusterTree(root=root, level=level, dist=members, parent=tree_parent)


def all_cluster_trees(
    graph: GraphLike, hierarchy: Hierarchy, pivots: Optional[PivotInfo] = None
) -> Dict[NodeId, ClusterTree]:
    """Every vertex's cluster tree, keyed by the cluster root."""
    adj = Adjacency.of(graph)
    if pivots is None:
        pivots = compute_pivots(adj, hierarchy)
    trees: Dict[NodeId, ClusterTree] = {}
    for root in sorted(adj.rows, key=repr):
        level = hierarchy.level_of[root]
        trees[root] = exact_cluster_tree(adj, root, level, pivots)
    return trees


def claim6_bound(n: int, k: int) -> float:
    """The whp bound of Claim 6: ``4 n^{1/k} ln n`` clusters per vertex."""
    return 4.0 * n ** (1.0 / k) * max(1.0, math.log(n))


def max_cluster_membership(trees: Dict[NodeId, ClusterTree]) -> Tuple[NodeId, int]:
    """The most-clustered vertex and its membership count (Claim 6 check)."""
    counts: Dict[NodeId, int] = {}
    for tree in trees.values():
        for v in tree.dist:
            counts[v] = counts.get(v, 0) + 1
    worst = max(counts, key=lambda v: (counts[v], repr(v)))
    return worst, counts[worst]
