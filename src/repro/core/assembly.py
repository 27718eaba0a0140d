"""Assembling the routing scheme from the cluster trees (Appendix B, end).

Once every cluster -- exact (low levels) or approximate (high levels) -- is
a tree of G, the remaining distributed work is:

1. run the **distributed tree-routing construction** of Section 3 on all
   cluster trees in parallel (``q = 1/sqrt(s n)`` with ``s`` the maximum
   number of trees through one vertex; random start times make the parallel
   schedule Õ(sqrt(s n) + D) whp -- the driver and its round accounting
   are :func:`repro.treerouting.multi.build_tree_schemes`);
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
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..congest.network import Network
from ..errors import InvariantViolation
from ..routing.artifacts import (
    GraphLabel,
    GraphTable,
    TreeRoutingScheme,
    graph_tables,
)
from ..tz.clusters import ClusterTree
from ..tz.hierarchy import Hierarchy

NodeId = Hashable
INF = math.inf


def assemble_tables(
    net: Network,
    schemes: Mapping[NodeId, TreeRoutingScheme],
) -> Dict[NodeId, GraphTable]:
    """Every vertex's table: its tree tables, keyed by cluster root."""
    tables = graph_tables(net.nodes(), schemes)
    net.store_each("scheme/table",
                   {v: table.word_size() for v, table in tables.items()})
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
    net.store_each("scheme/label",
                   {v: label.word_size() for v, label in labels.items()})
    return labels
