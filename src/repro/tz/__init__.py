"""Thorup-Zwick machinery (substrate + baselines, S4 of DESIGN.md)."""

from .clusters import (
    ClusterTree,
    PivotInfo,
    all_cluster_trees,
    claim6_bound,
    compute_pivots,
    exact_cluster_tree,
    max_cluster_membership,
)
from .graph_scheme import build_centralized_scheme
from .hierarchy import (
    Hierarchy,
    sample_hierarchy,
    virtual_level,
)
from .tree_scheme import build_tree_scheme

__all__ = [
    "ClusterTree",
    "Hierarchy",
    "PivotInfo",
    "all_cluster_trees",
    "build_centralized_scheme",
    "build_tree_scheme",
    "claim6_bound",
    "compute_pivots",
    "exact_cluster_tree",
    "max_cluster_membership",
    "sample_hierarchy",
    "virtual_level",
]
