"""Assembling the routing scheme from the cluster trees (Appendix B, end).

Once every cluster -- exact (low levels) or approximate (high levels) -- is
a tree of G, the remaining distributed work is:

1. run the **distributed tree-routing construction** of Section 3 on all
   cluster trees in parallel (``q = 1/sqrt(s n)`` with ``s`` the maximum
   number of trees through one vertex; random start times make the parallel
   schedule Õ(sqrt(s n) + D) whp -- see :mod:`repro.core.build` for the
   round accounting);
2. every vertex's **table** is the collection of its tree tables (Claim 6:
   Õ(n^{1/k}) of them);
3. every vertex's **label** has one entry per level ``i``: the best tree of
   a root in ``A_i`` that contains the vertex, kept only when its advertised
   distance genuinely approximates ``d(v, A_i)`` (within the ``(1+6ε)``
   slack of the approximate-cluster sandwich, Eq. 2-4); otherwise the entry
   is ``None`` and the stretch analysis's "climb" case applies.  The
   top-level entry always exists because top-level clusters span V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..congest.bfs import BfsTree
from ..congest.network import Network
from ..errors import InvariantViolation
from ..routing.artifacts import (
    GraphLabel,
    GraphTable,
    TreeRoutingScheme,
    graph_tables,
)
from ..treerouting.scheme import build_distributed_tree_scheme
from ..tz.clusters import ClusterTree
from ..tz.hierarchy import Hierarchy

NodeId = Hashable
INF = math.inf


@dataclass
class AssemblyStats:
    """Per-phase observability for the bench harness."""

    tree_rounds_total: int = 0
    tree_rounds_max: int = 0
    trees_built: int = 0
    max_trees_per_vertex: int = 0


def build_tree_schemes(
    net: Network,
    bfs: BfsTree,
    cluster_trees: Mapping[NodeId, ClusterTree],
    *,
    seed: int = 0,
) -> Tuple[Dict[NodeId, TreeRoutingScheme], AssemblyStats]:
    """Section-3 construction on every cluster tree, multi-tree mode."""
    stats = AssemblyStats()
    membership: Dict[NodeId, int] = {}
    for tree in cluster_trees.values():
        for v in tree.dist:
            membership[v] = membership.get(v, 0) + 1
    stats.max_trees_per_vertex = max(membership.values()) if membership else 0
    s = max(1, stats.max_trees_per_vertex)
    q = min(1.0, 1.0 / math.sqrt(s * net.n))

    schemes: Dict[NodeId, TreeRoutingScheme] = {}
    for root in sorted(cluster_trees, key=repr):
        tree = cluster_trees[root]
        build = build_distributed_tree_scheme(
            net,
            tree.parent,
            q=q,
            seed=seed,
            salt=f"ct/{root!r}",
            bfs=bfs,
            tree_id=root,
            root_distance=lambda v, d=tree.dist: d[v],
            mem_prefix=f"ct/{root!r}",
        )
        schemes[root] = build.scheme
        stats.trees_built += 1
        stats.tree_rounds_total += build.rounds
        stats.tree_rounds_max = max(stats.tree_rounds_max, build.rounds)
    return schemes, stats


def assemble_tables(
    net: Network,
    schemes: Mapping[NodeId, TreeRoutingScheme],
) -> Dict[NodeId, GraphTable]:
    """Every vertex's table: its tree tables, keyed by cluster root."""
    tables = graph_tables(net.nodes(), schemes)
    for v, table in tables.items():
        net.mem(v).store("scheme/table", table.word_size())
    return tables


def assemble_labels(
    net: Network,
    hierarchy: Hierarchy,
    cluster_trees: Mapping[NodeId, ClusterTree],
    schemes: Mapping[NodeId, TreeRoutingScheme],
    pivot_reference: Mapping[int, Mapping[NodeId, float]],
    *,
    slack: float,
) -> Dict[NodeId, GraphLabel]:
    """Per-vertex labels: one (pivot-tree, distance, tree-label) per level.

    ``pivot_reference[i][v]`` is the vertex's (exact or approximate)
    distance to ``A_i``; a level-``i`` candidate entry is kept only when its
    advertised distance is within ``slack`` of it.  Level 0 is the vertex's
    own cluster (distance 0); the last level never filters (the routing
    fallback must always exist).
    """
    k = hierarchy.k
    # candidates[v] = list of (est, root) over trees containing v
    candidates: Dict[NodeId, List[Tuple[float, NodeId]]] = {v: [] for v in net.nodes()}
    for root, tree in cluster_trees.items():
        for v, est in tree.dist.items():
            candidates[v].append((est, root))
    for v in candidates:
        candidates[v].sort(key=lambda pair: (pair[0], repr(pair[1])))

    labels: Dict[NodeId, GraphLabel] = {}
    for v in sorted(net.nodes(), key=repr):
        entries: List[Optional[Tuple[NodeId, float, object]]] = []
        for i in range(k):
            best: Optional[Tuple[float, NodeId]] = None
            for est, root in candidates[v]:
                if hierarchy.level_of[root] >= i:
                    best = (est, root)
                    break
            if best is None:
                if i == k - 1:
                    raise InvariantViolation(
                        f"{v!r} lies in no top-level cluster; top-level "
                        "clusters must span V"
                    )
                entries.append(None)
                continue
            est, root = best
            reference = pivot_reference.get(i, {}).get(v, INF)
            if i < k - 1 and reference < INF and est > slack * reference + 1e-12:
                entries.append(None)
                continue
            entries.append((root, est, schemes[root].labels[v]))
        labels[v] = GraphLabel(vertex=v, entries=tuple(entries))
        net.mem(v).store("scheme/label", labels[v].word_size())
    return labels
