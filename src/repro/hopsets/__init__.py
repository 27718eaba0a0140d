"""Hopsets with path recovery and bounded per-vertex storage (S5)."""

from .arboricity import (
    degeneracy_orientation,
    forest_decomposition,
    nash_williams_lower_bound,
    verify_forest,
)
from .bounded_bf import ExplorationState, hopset_bellman_ford
from .construction import build_hopset
from .hopset import Hopset, measure_hopbound, union_graph
from .path_recovery import recover_paths

__all__ = [
    "ExplorationState",
    "Hopset",
    "build_hopset",
    "degeneracy_orientation",
    "forest_decomposition",
    "hopset_bellman_ford",
    "measure_hopbound",
    "nash_williams_lower_bound",
    "recover_paths",
    "union_graph",
    "verify_forest",
]
