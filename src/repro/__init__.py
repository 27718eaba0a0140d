"""repro -- a reproduction of "Near-Optimal Distributed Routing with Low
Memory" (Elkin & Neiman, PODC 2018).

The package builds compact routing schemes for weighted graphs on a
simulated CONGEST network, with the paper's headline guarantee: per-vertex
memory during preprocessing within a polylog factor of the final routing
tables and labels.

Quickstart
----------

Exact tree routing with O(1) tables, O(log n) labels and O(log n) memory
(Theorem 2)::

    import networkx as nx
    from repro import (
        Network, build_distributed_tree_scheme, route_in_tree,
        random_connected_graph, spanning_tree_of,
    )

    graph = random_connected_graph(500, seed=1)
    tree = spanning_tree_of(graph, style="dfs")
    net = Network(graph)
    build = build_distributed_tree_scheme(net, tree)
    result = route_in_tree(build.scheme, source, target,
                           weight_of=lambda u, v: graph[u][v]["weight"])

General graphs with stretch 4k-3+o(1), tables Õ(n^{1/k}), labels
O(k log n), memory Õ(n^{1/k}) (Theorem 3)::

    from repro import build_distributed_scheme, route_in_graph

    report = build_distributed_scheme(graph, k=3)
    route = route_in_graph(report.scheme, graph, source, target)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the measured
reproduction of the paper's Tables 1-2.
"""

from .congest import (
    BfsTree,
    Forest,
    MemoryMeter,
    Network,
    RunMetrics,
    broadcast_all,
    build_bfs_tree,
    convergecast_up,
)
from .core import BuildReport, build_distributed_scheme
from .errors import (
    CongestModelViolation,
    InputError,
    InvariantViolation,
    MemoryAccountingError,
    ReproError,
    RoutingFailure,
)
from .graphs import (
    grid_graph,
    random_connected_graph,
    ring_of_cliques,
    spanning_tree_of,
)
from .hopsets import Hopset, build_hopset, hopset_bellman_ford, measure_hopbound
from .telemetry import (
    BoundVerdict,
    RunRecord,
    TelemetryCollector,
    collect,
)
from .routing import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    RouteResult,
    StretchReport,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
    measure_stretch,
    route_in_graph,
    route_in_tree,
    sample_pairs,
    tree_forward,
)
from .treerouting import (
    DistributedTreeBuild,
    build_distributed_tree_scheme,
    partition_tree,
)
from .treerouting.multi import MultiTreeBuild, build_tree_schemes
from .tz import (
    build_centralized_scheme,
    build_tree_scheme,
    sample_hierarchy,
)

__version__ = "1.0.0"

__all__ = [
    "BfsTree",
    "BoundVerdict",
    "BuildReport",
    "CongestModelViolation",
    "DistributedTreeBuild",
    "Forest",
    "GraphLabel",
    "GraphRoutingScheme",
    "GraphTable",
    "Hopset",
    "InputError",
    "InvariantViolation",
    "MemoryAccountingError",
    "MemoryMeter",
    "MultiTreeBuild",
    "Network",
    "ReproError",
    "RouteResult",
    "RoutingFailure",
    "RunMetrics",
    "RunRecord",
    "TelemetryCollector",
    "StretchReport",
    "TreeLabel",
    "TreeRoutingScheme",
    "TreeTable",
    "broadcast_all",
    "build_bfs_tree",
    "build_centralized_scheme",
    "build_distributed_scheme",
    "build_distributed_tree_scheme",
    "build_hopset",
    "build_tree_scheme",
    "build_tree_schemes",
    "collect",
    "convergecast_up",
    "grid_graph",
    "hopset_bellman_ford",
    "measure_hopbound",
    "measure_stretch",
    "partition_tree",
    "random_connected_graph",
    "ring_of_cliques",
    "route_in_graph",
    "route_in_tree",
    "sample_hierarchy",
    "sample_pairs",
    "spanning_tree_of",
    "tree_forward",
]
