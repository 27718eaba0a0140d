"""Centralized Thorup-Zwick exact tree routing (the [TZ01b] row of Table 2).

Given a rooted tree (parent map), produce per-vertex
:class:`~repro.routing.artifacts.TreeTable` (O(1) words: DFS interval,
parent, heavy child) and per-vertex
:class:`~repro.routing.artifacts.TreeLabel` (O(log n) words: DFS entry time
plus the light edges on the root path).

This is both the Table 2 baseline and the ground truth the distributed
construction of :mod:`repro.treerouting` must match *exactly* (same
deterministic child order), which tests assert field by field.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional

from ..graphs.trees import tree_profile
from ..routing.artifacts import TreeLabel, TreeRoutingScheme, TreeTable

NodeId = Hashable


def build_tree_scheme(
    parent: Mapping[NodeId, Optional[NodeId]],
    *,
    tree_id: Optional[Hashable] = None,
    root_distance: Optional[Callable[[NodeId], float]] = None,
) -> TreeRoutingScheme:
    """Build the exact TZ routing scheme for one tree.

    ``root_distance(v)`` optionally supplies the weighted distance from the
    root (stored in the table, +1 word) -- the general-graph scheme uses it
    for source-side candidate selection.
    """
    profile = tree_profile(parent)
    root, heavy, intervals = profile.root, profile.heavy, profile.intervals

    tables: Dict[NodeId, TreeTable] = {}
    labels: Dict[NodeId, TreeLabel] = {}
    for v in parent:
        enter, exit_ = intervals[v]
        tables[v] = TreeTable(
            enter=enter,
            exit_=exit_,
            parent=parent[v],
            heavy=heavy[v],
            root_distance=root_distance(v) if root_distance is not None else None,
        )
        labels[v] = TreeLabel(
            enter=enter,
            light_edges=profile.light_edges[v],
        )
    return TreeRoutingScheme(
        tree_id=tree_id if tree_id is not None else root,
        root=root,
        tables=tables,
        labels=labels,
    )
