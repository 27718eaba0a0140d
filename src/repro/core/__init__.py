"""The paper's distributed low-memory routing for general graphs
(Appendix B, Theorem 3; system S7 of DESIGN.md)."""

from .assembly import assemble_labels, assemble_tables
from .build import BuildReport, build_distributed_scheme, default_beta
from .high_levels import (
    approximate_pivot_distances,
    build_approximate_cluster,
    build_high_level_clusters,
)
from .low_levels import build_exact_low_level_clusters, claim8_hop_limit
from .parameters import SchemePreset, expected_virtual_size, preset

__all__ = [
    "BuildReport",
    "approximate_pivot_distances",
    "assemble_labels",
    "assemble_tables",
    "build_approximate_cluster",
    "build_exact_low_level_clusters",
    "build_high_level_clusters",
    "build_distributed_scheme",
    "claim8_hop_limit",
    "default_beta",
    "SchemePreset",
    "expected_virtual_size",
    "preset",
]
