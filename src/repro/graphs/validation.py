"""Input and invariant validators shared by tests and the public API."""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

import networkx as nx

from ..errors import InputError, InvariantViolation
from .paths import Adjacency, hop_counts
from .trees import children_map, tree_root

NodeId = Hashable


def require_weighted_connected(graph: nx.Graph) -> None:
    """API-boundary check: undirected, connected, positive finite weights."""
    if graph.is_directed():
        raise InputError("graph must be undirected")
    if graph.number_of_nodes() == 0:
        raise InputError("graph must be non-empty")
    if not nx.is_connected(graph):
        raise InputError("graph must be connected")
    for u, v, data in graph.edges(data=True):
        w = data.get("weight", 1.0)
        if not (w > 0) or w != w or w == float("inf"):
            raise InputError(f"edge ({u!r}, {v!r}) has invalid weight {w!r}")


def require_tree_in_graph(
    graph: nx.Graph, parent: Mapping[NodeId, Optional[NodeId]]
) -> None:
    """The routing tree must be a subgraph of the network: every tree edge
    is a graph edge and every tree vertex a graph vertex."""
    tree_root(parent)  # raises if not exactly one root
    children_map(parent)  # raises on dangling parents
    for v, p in parent.items():
        if v not in graph:
            raise InputError(f"tree vertex {v!r} is not in the network")
        if p is not None and not graph.has_edge(v, p):
            raise InputError(f"tree edge ({p!r}, {v!r}) is not a network edge")


def verify_claim7(
    graph: nx.Graph,
    virtual_vertices,
    hop_bound: int,
    *,
    sample_sources: int = 16,
) -> bool:
    """Empirically check Claim 7: shortest paths of >= ``hop_bound`` hops
    contain a virtual vertex.  Samples a few sources (exact check is
    all-pairs).  Returns True when no violation was found."""
    virtual = set(virtual_vertices)
    sources = sorted(graph.nodes, key=repr)[:sample_sources]
    adj = Adjacency.of(graph)
    for s in sources:
        hops = hop_counts(adj, s)
        import networkx as _nx

        paths = _nx.single_source_dijkstra_path(graph, s, weight="weight")
        for t, h in hops.items():
            if h < hop_bound:
                continue
            if not any(v in virtual for v in paths[t][1:-1]):
                return False
    return True


def assert_laminar_intervals(intervals: Dict[NodeId, tuple]) -> None:
    """DFS intervals must pairwise nest or be disjoint."""
    items = sorted(intervals.values())
    stack: list = []
    for enter, exit_ in items:
        while stack and stack[-1] < enter:
            stack.pop()
        if stack and exit_ > stack[-1]:
            raise InvariantViolation(
                f"interval ({enter}, {exit_}) crosses an open interval"
            )
        stack.append(exit_)
