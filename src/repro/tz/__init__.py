"""Thorup-Zwick machinery (substrate + baselines, S4 of DESIGN.md)."""

from .clusters import (
    ClusterTree,
    PivotInfo,
    all_cluster_trees,
    bunches,
    claim6_bound,
    compute_pivots,
    exact_cluster_tree,
    max_cluster_membership,
)
from .graph_scheme import build_centralized_scheme
from .hierarchy import (
    Hierarchy,
    expected_level_size,
    sample_hierarchy,
    virtual_level,
)
from .oracle import (
    DistanceOracle,
    build_distance_oracle,
    theoretical_stretch,
)
from .tree_scheme import build_tree_scheme

__all__ = [
    "ClusterTree",
    "DistanceOracle",
    "Hierarchy",
    "PivotInfo",
    "all_cluster_trees",
    "build_centralized_scheme",
    "build_distance_oracle",
    "build_tree_scheme",
    "bunches",
    "claim6_bound",
    "compute_pivots",
    "exact_cluster_tree",
    "expected_level_size",
    "max_cluster_membership",
    "sample_hierarchy",
    "theoretical_stretch",
    "virtual_level",
]
