"""Centralized Thorup-Zwick compact routing (the [TZ01b] row of Table 1).

The NA-rounds baseline: exact pivots, exact clusters, exact tree schemes.
Table size Õ(n^{1/k}) words (Claim 6), label size O(k log n) words, stretch
at most 4k-3 with the first-matching-pivot rule (and typically much better
with ``mode="best"`` source-side selection; see
:mod:`repro.routing.router`).

The distributed scheme of Appendix B (:mod:`repro.core`) produces the same
artifact types with *approximate* pivots/clusters; benchmarks print both as
Table 1 rows.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import networkx as nx

from ..errors import InputError
from ..graphs.paths import Adjacency
from ..graphs.validation import require_weighted_connected
from ..routing.artifacts import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    TreeRoutingScheme,
)
from .clusters import all_cluster_trees, compute_pivots
from .hierarchy import Hierarchy, sample_hierarchy
from .tree_scheme import build_tree_scheme

NodeId = Hashable


def build_centralized_scheme(
    graph: nx.Graph,
    k: int,
    *,
    seed: int = 0,
    hierarchy: Optional[Hierarchy] = None,
) -> GraphRoutingScheme:
    """Build the full centralized TZ routing scheme with parameter ``k``.

    Steps: sample the hierarchy; compute exact pivots and exact cluster
    trees; build one exact tree scheme per cluster; assemble per-vertex
    tables (their tree tables) and labels (their pivots' trees).
    """
    require_weighted_connected(graph)
    if k < 1:
        raise InputError("k must be >= 1")
    if hierarchy is None:
        hierarchy = sample_hierarchy(list(graph.nodes), k, seed=seed)
    adj = Adjacency.of(graph)  # one snapshot under the k + n explorations
    pivots = compute_pivots(adj, hierarchy)
    cluster_trees = all_cluster_trees(adj, hierarchy, pivots)

    tree_schemes: Dict[Hashable, TreeRoutingScheme] = {}
    for root, ctree in cluster_trees.items():
        tree_schemes[root] = build_tree_scheme(
            ctree.parent,
            tree_id=root,
            root_distance=lambda v, d=ctree.dist: d[v],
        )

    tables: Dict[NodeId, GraphTable] = {v: GraphTable(vertex=v) for v in graph.nodes}
    for root, scheme in tree_schemes.items():
        for v, table in scheme.tables.items():
            tables[v].trees[root] = table

    labels: Dict[NodeId, GraphLabel] = {}
    for v in graph.nodes:
        entries = []
        for i in range(k):
            w = pivots.pivot[i][v]
            if w is None:
                entries.append(None)
                continue
            ctree = cluster_trees[w]
            if v not in ctree:
                # Possible only on distance ties d(v, A_i) = d(v, A_{i+1});
                # the level above then covers v at the same distance.
                entries.append(None)
                continue
            entries.append((w, ctree.dist[v], tree_schemes[w].labels[v]))
        labels[v] = GraphLabel(vertex=v, entries=tuple(entries))

    return GraphRoutingScheme(
        k=k, tables=tables, labels=labels, tree_schemes=tree_schemes
    )
