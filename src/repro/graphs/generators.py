"""Seeded workload generators.

Every benchmark and test builds its inputs here, so experiments are
reproducible from a single integer seed.  The families mirror the regimes
the paper's bounds distinguish:

* low hop-diameter, many vertices (random graphs, where D << sqrt(n) << n and
  the sqrt(n) term of the round bounds dominates);
* grid-like graphs (moderate D, sparse);
* deep spanning trees inside shallow networks -- the exact situation the
  distributed *tree* routing of Section 3 is designed for ("the hop-diameter
  of T may be much larger than the hop-diameter D of G").

All graphs are connected, undirected, and carry float ``weight`` attributes.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from ..errors import InputError

NodeId = Hashable


def _assign_weights(
    graph: nx.Graph,
    rng: random.Random,
    low: float,
    high: float,
) -> nx.Graph:
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.uniform(low, high)
    return graph


def _connect(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    """Add random edges between components until the graph is connected."""
    components = [sorted(c, key=repr) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = rng.choice(components[0])
        b = rng.choice(components[1])
        graph.add_edge(a, b)
        merged = components[0] + components[1]
        components = [merged] + components[2:]
    return graph


def random_connected_graph(
    n: int,
    *,
    avg_degree: float = 6.0,
    weight_range: Tuple[float, float] = (1.0, 10.0),
    seed: int = 0,
) -> nx.Graph:
    """A connected Erdos-Renyi-style weighted graph with ~``avg_degree``.

    These graphs have hop-diameter O(log n) whp, the regime where the
    paper's sqrt(n)-type terms dominate the round complexity.
    """
    if n < 2:
        raise InputError("need n >= 2")
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(1, n - 1))
    graph = nx.gnp_random_graph(n, p, seed=seed)
    _connect(graph, rng)
    return _assign_weights(graph, rng, *weight_range)


def grid_graph(
    rows: int,
    cols: int,
    *,
    weight_range: Tuple[float, float] = (1.0, 10.0),
    seed: int = 0,
) -> nx.Graph:
    """A weighted 2-D grid, relabelled to integer ids (moderate D = rows+cols)."""
    rng = random.Random(seed)
    grid = nx.grid_2d_graph(rows, cols)
    graph = nx.convert_node_labels_to_integers(grid, ordering="sorted")
    return _assign_weights(graph, rng, *weight_range)


def ring_of_cliques(
    cliques: int,
    clique_size: int,
    *,
    weight_range: Tuple[float, float] = (1.0, 10.0),
    seed: int = 0,
) -> nx.Graph:
    """Dense local clusters joined in a cycle (models hub-and-spoke WANs)."""
    if cliques < 3 or clique_size < 2:
        raise InputError("need >= 3 cliques of size >= 2")
    rng = random.Random(seed)
    graph = nx.ring_of_cliques(cliques, clique_size)
    return _assign_weights(graph, rng, *weight_range)


def spanning_tree_of(
    graph: nx.Graph,
    *,
    style: str = "shortest-path",
    root: Optional[NodeId] = None,
    seed: int = 0,
) -> Dict[NodeId, Optional[NodeId]]:
    """Extract a spanning tree of ``graph`` as a parent map.

    Styles:

    * ``"shortest-path"`` -- Dijkstra tree from ``root`` (weighted SPT);
    * ``"bfs"``           -- BFS tree (minimum hop depth);
    * ``"dfs"``           -- DFS tree (maximally deep: tree depth can approach
      n even when the network's hop-diameter is tiny, which is exactly the
      regime Section 3 targets);
    * ``"random"``        -- random spanning tree (uniform-ish via random
      edge weights + MST).
    """
    rng = random.Random(seed)
    if root is None:
        root = min(graph.nodes, key=repr)
    if style == "shortest-path":
        paths = nx.single_source_dijkstra_path(graph, root, weight="weight")
        parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        for v, path in paths.items():
            if v != root:
                parent[v] = path[-2]
        return parent
    if style == "bfs":
        parent = {root: None}
        for u, v in nx.bfs_edges(graph, root):
            parent[v] = u
        return parent
    if style == "dfs":
        parent = {root: None}
        for u, v in nx.dfs_edges(graph, root):
            parent[v] = u
        return parent
    if style == "random":
        shadow = nx.Graph()
        for u, v in graph.edges:
            shadow.add_edge(u, v, weight=rng.random())
        mst = nx.minimum_spanning_tree(shadow)
        parent = {root: None}
        for u, v in nx.bfs_edges(mst, root):
            parent[v] = u
        return parent
    raise InputError(f"unknown spanning-tree style {style!r}")
