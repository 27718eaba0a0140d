"""Exact clusters for the low levels ``i < ⌈k/2⌉`` (Appendix B).

"In particular, for i < k/2 we can find C(v) (the 'exact' cluster) for
v ∈ A_i \\ A_{i+1} by a simple limited Bellman-Ford exploration from all
such v for 4 n^{(i+1)/k} ln n <= Õ(sqrt n) rounds.  By Claim 6, the
congestion induced at each u ∈ V ... is only 4 n^{1/k} ln n, so the total
number of rounds required is Õ(n^{1/2+1/k}), and each vertex needs to store
at most 4 n^{1/k} ln n words."

The exploration is the limited Dijkstra/Bellman-Ford of
:func:`repro.tz.clusters.exact_cluster_tree`; Claim 8 guarantees the
hop-limited distributed exploration finds the same clusters whp, so we
compute the exact result and charge the paper's round formula per level
(cost-charged phase, DESIGN.md substitution 2).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List

from ..congest.network import Network
from ..graphs.paths import Adjacency
from ..telemetry.events import phase
from ..tz.clusters import ClusterTree, PivotInfo, exact_cluster_tree
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
) -> Dict[NodeId, ClusterTree]:
    """Cluster trees for every root at levels ``0 .. top_exclusive - 1``.

    Rounds charged per level: the Claim-8 hop limit plus the Claim-6
    congestion allowance; memory charged per vertex: 2 words per cluster
    containing it (the estimate and the tree parent).
    """
    n = net.n
    k = hierarchy.k
    congestion = math.ceil(4.0 * n ** (1.0 / k) * max(1.0, math.log(n)))
    trees: Dict[NodeId, ClusterTree] = {}
    adj = Adjacency.of(net.graph)
    for i in range(top_exclusive):
        with phase(net, f"low-levels/{i}"):
            roots: List[NodeId] = hierarchy.vertices_at_level(i)
            for root in roots:
                tree = exact_cluster_tree(adj, root, i, pivots)
                trees[root] = tree
                for v in tree.dist:
                    net.mem(v).add("clusters/membership", 2)
            net.charge_rounds(claim8_hop_limit(n, k, i) + congestion)
    # Exact pivot distances for the low levels: one hop-limited multi-source
    # exploration per level (already reflected in `pivots`); charge it.
    for i in range(1, top_exclusive + 1):
        if i < k:
            with phase(net, f"low-levels/pivots-{i}"):
                net.charge_rounds(claim8_hop_limit(n, k, i - 1))
    for v in net.nodes():
        net.mem(v).store("pivots/exact", 2 * min(top_exclusive + 1, k))
    return trees
