"""Centralized Thorup-Zwick exact tree routing (the [TZ01b] row of Table 2).

Given a rooted tree (parent map), produce per-vertex
:class:`~repro.routing.artifacts.TreeTable` (O(1) words: DFS interval,
parent, heavy child) and per-vertex
:class:`~repro.routing.artifacts.TreeLabel` (O(log n) words: DFS entry time
plus the light edges on the root path), as the columns of one
:class:`~repro.routing.artifacts.TreeRoutingScheme`.

This is both the Table 2 baseline and the ground truth the distributed
construction of :mod:`repro.treerouting` must match *exactly* (same
deterministic child order), which tests assert field by field.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional

from ..graphs.trees import tree_profile
from ..routing.artifacts import TreeRoutingScheme

NodeId = Hashable


def build_tree_scheme(
    parent: Mapping[NodeId, Optional[NodeId]],
    *,
    tree_id: Optional[Hashable] = None,
) -> TreeRoutingScheme:
    """Build the exact TZ routing scheme for one tree."""
    profile = tree_profile(parent)
    return TreeRoutingScheme.of_tree(
        tree_id if tree_id is not None else profile.root, profile.root,
        parent, profile.heavy, profile.intervals, profile.light_edges)
