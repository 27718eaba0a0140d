"""Thorup-Zwick approximate distance oracle (stretch 2k-1).

[TZ01a], cited by the paper as the source of Claim 6.  Not used on the
routing hot path, but it shares the hierarchy/pivot/bunch machinery and
serves as (a) an independent correctness check of that machinery and (b) a
space-vs-stretch baseline in the documentation examples.

``B(v)`` (the bunch) is the set of cluster roots whose cluster contains
``v``; the oracle stores ``d(v, u)`` for every ``u ∈ B(v)`` plus the pivots
``p_i(v)``.  Query(u, v) walks levels upward, alternating sides, until the
current pivot lands in the other side's bunch; the returned estimate is at
most ``(2k-1) d(u, v)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import networkx as nx

from ..errors import InputError, InvariantViolation
from ..graphs.paths import Adjacency
from .clusters import all_cluster_trees, compute_pivots
from .hierarchy import Hierarchy, sample_hierarchy

NodeId = Hashable


@dataclass
class DistanceOracle:
    """Per-vertex storage: pivots per level and bunch distances."""

    k: int
    pivots: List[Dict[NodeId, Optional[NodeId]]]
    pivot_dist: List[Dict[NodeId, float]]
    bunch: Dict[NodeId, Dict[NodeId, float]]

    def storage_words(self, v: NodeId) -> int:
        """Words held by ``v``: 2 per level (pivot + distance) and 2 per
        bunch member."""
        return 2 * self.k + 2 * len(self.bunch[v])

    def query(self, u: NodeId, v: NodeId) -> float:
        """A distance estimate within factor 2k-1 of ``d(u, v)``."""
        if u == v:
            return 0.0
        w: NodeId = u
        i = 0
        while w not in self.bunch[v]:
            i += 1
            if i >= self.k:
                raise InvariantViolation(
                    "oracle walk exceeded k levels; top-level bunches must "
                    "contain every vertex"
                )
            u, v = v, u
            w = self.pivots[i][u]
            if w is None:
                raise InvariantViolation(f"missing level-{i} pivot for {u!r}")
        return self.pivot_dist_of(w, u) + self.bunch[v][w]

    def pivot_dist_of(self, w: NodeId, u: NodeId) -> float:
        """``d(u, w)`` where ``w`` is one of ``u``'s pivots (stored), or 0
        when ``w == u``."""
        if w == u:
            return 0.0
        # w is p_i(u) for the smallest level storing it; distances agree.
        for i in range(self.k):
            if self.pivots[i].get(u) == w:
                return self.pivot_dist[i][u]
        # w entered via the bunch of u.
        if w in self.bunch[u]:
            return self.bunch[u][w]
        raise InvariantViolation(f"{w!r} is neither a pivot nor in bunch of {u!r}")


def build_distance_oracle(
    graph: nx.Graph,
    k: int,
    *,
    seed: int = 0,
    hierarchy: Optional[Hierarchy] = None,
) -> DistanceOracle:
    """Construct the TZ oracle (centralized)."""
    if k < 1:
        raise InputError("k must be >= 1")
    if hierarchy is None:
        hierarchy = sample_hierarchy(list(graph.nodes), k, seed=seed)
    adj = Adjacency.of(graph)
    pivots = compute_pivots(adj, hierarchy)
    trees = all_cluster_trees(adj, hierarchy, pivots)
    bunch: Dict[NodeId, Dict[NodeId, float]] = {v: {} for v in graph.nodes}
    for root, tree in trees.items():
        for v, d in tree.dist.items():
            bunch[v][root] = d
    return DistanceOracle(
        k=k,
        pivots=pivots.pivot,
        pivot_dist=pivots.dist,
        bunch=bunch,
    )


def theoretical_stretch(k: int) -> int:
    """The oracle's stretch guarantee."""
    return 2 * k - 1
