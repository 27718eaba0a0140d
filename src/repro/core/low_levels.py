"""Exact clusters for the low levels ``i < ⌈k/2⌉`` (Appendix B).

"In particular, for i < k/2 we can find C(v) (the 'exact' cluster) for
v ∈ A_i \\ A_{i+1} by a simple limited Bellman-Ford exploration from all
such v for 4 n^{(i+1)/k} ln n <= Õ(sqrt n) rounds.  By Claim 6, the
congestion induced at each u ∈ V ... is only 4 n^{1/k} ln n, so the total
number of rounds required is Õ(n^{1/2+1/k}), and each vertex needs to store
at most 4 n^{1/k} ln n words."

Each cluster is that exploration: the high levels' kernel
:func:`repro.graphs.paths.bounded_bellman_ford` from ``{root: 0}`` under the
gate ``d < d(v, A_{i+1})`` with ``n`` hops, so it is exact.  Rounds are
charged by the paper's formula per level (DESIGN.md substitution 2).  The
trees are :func:`repro.tz.clusters.all_cluster_trees`', dict order included.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from ..congest.network import Network
from ..graphs.paths import Adjacency, bounded_bellman_ford
from ..telemetry.events import phase
from ..tz.clusters import ClusterTree, PivotInfo, claim6_bound
from ..tz.hierarchy import Hierarchy

NodeId = Hashable


def claim8_hop_limit(n: int, k: int, i: int) -> int:
    """``4 n^{(i+1)/k} ln n`` hops suffice for level-``i`` clusters (whp),
    capped at ``n``."""
    return int(min(n, math.ceil(4.0 * n ** ((i + 1) / k) * max(1.0, math.log(n)))))


def build_exact_low_level_clusters(
    net: Network,
    hierarchy: Hierarchy,
    pivots: PivotInfo,
    top_exclusive: int,
) -> Tuple[Dict[NodeId, ClusterTree], Dict[int, int]]:
    """Cluster trees for every root at levels ``0 .. top_exclusive - 1``
    (``< k``), and per level the last pass that lowered an estimate in its
    longest exploration (Claim 8 bounds it).

    Rounds charged per level: the Claim-8 hop limit plus the Claim-6
    congestion allowance; memory charged per vertex: 2 words per cluster
    containing it (the estimate and the tree parent).
    """
    n = net.n
    k = hierarchy.k
    congestion = math.ceil(claim6_bound(n, k))
    trees: Dict[NodeId, ClusterTree] = {}
    passes: Dict[int, int] = {}
    adj = Adjacency.of(net.graph)
    for i in range(top_exclusive):
        next_dist = pivots.dist[i + 1]
        with phase(net, f"low-levels/{i}"):
            for root in hierarchy.vertices_at_level(i):
                dist, _, used = bounded_bellman_ford(
                    adj, {root: 0.0}, n, forward_if=lambda v, d: d < next_dist[v])
                passes[i] = max(passes.get(i, 0), used - 1)
                # The Dijkstra's tree, not the kernel's scan-order ties: members in
                # discovery order; v's parent is the member u with d(u) + w = d(v)
                # and the least (d(u), repr(u)).
                members: Dict[NodeId, float] = {root: 0.0}
                parent: Dict[NodeId, Optional[NodeId]] = {root: None}
                inside = {v: d for v, d in dist.items() if d < next_dist[v]}
                for u in sorted(inside, key=lambda v: (inside[v], repr(v))):
                    for v, weight, _tie in adj.rows[u]:
                        dv = inside.get(v)
                        if dv is not None:
                            members.setdefault(v, dv)
                            if v not in parent and inside[u] + weight == dv:
                                parent[v] = u
                trees[root] = ClusterTree(root=root, level=i, dist=members,
                                          parent={v: parent[v] for v in members})
                net.add_each("clusters/membership", members, 2)
            net.charge_rounds(claim8_hop_limit(n, k, i) + congestion)
    # Exact pivot distances for the low levels: one hop-limited multi-source
    # exploration per level (already reflected in `pivots`); charge it.
    for i in range(1, min(top_exclusive + 1, k)):
        with phase(net, f"low-levels/pivots-{i}"):
            net.charge_rounds(claim8_hop_limit(n, k, i - 1))
    net.store_each("pivots/exact",
                   dict.fromkeys(net.nodes(), 2 * min(top_exclusive + 1, k)))
    return trees, passes
