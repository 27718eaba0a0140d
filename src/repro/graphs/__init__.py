"""Graph toolkit (substrate S3 of DESIGN.md): generators, reference
shortest-path algorithms, rooted-tree utilities, and the implicit virtual
graph oracle of Appendix B."""

from .generators import (
    caterpillar_tree,
    grid_graph,
    random_connected_graph,
    random_tree_network,
    ring_of_cliques,
    spanning_tree_of,
    subtree_parent_map,
)
from .paths import (
    bounded_bellman_ford,
    dijkstra,
    distances_to_set,
    hop_counts,
    hop_diameter,
    nearest_in_set,
    shortest_path_diameter,
)
from .trees import (
    children_map,
    depths,
    dfs_intervals,
    heavy_children,
    light_edge_lists,
    postorder,
    subtree_sizes,
    tree_distance,
    tree_path,
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
    weight_exponent,
)

__all__ = [
    "VirtualGraphOracle",
    "aspect_ratio",
    "assign_log_uniform_weights",
    "encoded_weight_bits",
    "quantization_stretch_bound",
    "quantize_weight",
    "quantize_weights",
    "raw_weight_bits",
    "weight_exponent",
    "assert_laminar_intervals",
    "bounded_bellman_ford",
    "caterpillar_tree",
    "children_map",
    "default_hop_bound",
    "depths",
    "dfs_intervals",
    "dijkstra",
    "distances_to_set",
    "grid_graph",
    "heavy_children",
    "hop_counts",
    "hop_diameter",
    "light_edge_lists",
    "nearest_in_set",
    "postorder",
    "random_connected_graph",
    "random_tree_network",
    "require_tree_in_graph",
    "require_weighted_connected",
    "ring_of_cliques",
    "shortest_path_diameter",
    "spanning_tree_of",
    "subtree_parent_map",
    "subtree_sizes",
    "tree_distance",
    "tree_path",
    "tree_root",
    "verify_claim7",
]
