"""Graph toolkit (substrate S3 of DESIGN.md): generators, reference
shortest-path algorithms, rooted-tree utilities, and the implicit virtual
graph oracle of Appendix B."""

from .generators import (
    grid_graph,
    random_connected_graph,
    ring_of_cliques,
    spanning_tree_of,
)
from .paths import (
    Adjacency,
    bounded_bellman_ford,
    dijkstra,
    hop_counts,
    nearest_in_set,
)
from .trees import (
    children_map,
    depths,
    tree_distance,
    tree_path,
    tree_profile,
    tree_root,
)
from .validation import (
    assert_laminar_intervals,
    require_tree_in_graph,
    require_weighted_connected,
    verify_claim7,
)
from .virtual import VirtualGraphOracle, default_hop_bound
from .weights import (
    aspect_ratio,
    assign_log_uniform_weights,
    encoded_weight_bits,
    quantization_stretch_bound,
    quantize_weight,
    quantize_weights,
    raw_weight_bits,
)

__all__ = [
    "Adjacency",
    "VirtualGraphOracle",
    "aspect_ratio",
    "assign_log_uniform_weights",
    "encoded_weight_bits",
    "quantization_stretch_bound",
    "quantize_weight",
    "quantize_weights",
    "raw_weight_bits",
    "assert_laminar_intervals",
    "bounded_bellman_ford",
    "children_map",
    "default_hop_bound",
    "depths",
    "dijkstra",
    "grid_graph",
    "hop_counts",
    "nearest_in_set",
    "random_connected_graph",
    "require_tree_in_graph",
    "require_weighted_connected",
    "ring_of_cliques",
    "spanning_tree_of",
    "tree_distance",
    "tree_path",
    "tree_profile",
    "tree_root",
    "verify_claim7",
]
