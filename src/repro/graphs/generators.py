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

All graphs are connected, undirected, and carry float ``weight`` attributes;
a parameter that cannot keep that promise is an :class:`InputError` naming
it.

The G(n, p) stream is owned here (:func:`_gnp_graph`) instead of drawn
through networkx's G(n, p) generator, and it is that generator's graph
exactly: the same edges in the same insertion order, so every golden built
on it stands.  networkx tests each vertex pair, in
``itertools.combinations(range(n), 2)`` order, with ``rng.random() < p`` on
a fresh ``random.Random(seed)``, one Python call per pair.  Why the bulk
draw is the same stream:

* CPython's ``random()`` is ``(A * 2**26 + B) / 2**53`` with
  ``A = w0 >> 5`` and ``B = w1 >> 6`` for the next two Mersenne-Twister
  words ``w0, w1``;
* ``getrandbits(64 * k)`` returns the next ``2k`` words least significant
  first, so its little-endian bytes hold pair ``i``'s ``w0`` and ``w1`` at
  offsets ``8i`` and ``8i + 4``;
* ``random() < p`` is exactly ``A * 2**26 + B < p * 2**53``: both sides
  are exact doubles.  (p >= 1 passes every pair and p <= 0 none, networkx's
  complete and empty graphs.)

That test implies ``A < p * 2**27``, which bounds the top byte of ``w0``
(``A >> 19``).  One ``translate`` of every eighth byte marks the pairs
under the bound, and only those reach Python code: ~1/256 of all pairs at
the sparse densities used here.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from ..errors import InputError

NodeId = Hashable

# Vertex pairs per bulk draw: 256 KiB of words as an int and again as
# bytes, a ~0.5 MB transient.
_CHUNK_PAIRS = 1 << 15
_WORD_PAIR = struct.Struct("<II")


def _check_weight_range(weight_range: Tuple[float, float]) -> None:
    low, high = weight_range
    if not 0 < low <= high < math.inf:
        raise InputError(
            f"weight_range must satisfy 0 < low <= high < inf, got {weight_range!r}"
        )


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


def _gnp_graph(n: int, p: float, seed: int) -> nx.Graph:
    """networkx's G(n, p) graph for ``(n, p, seed)``, drawn in bulk (module doc)."""
    rng = random.Random(seed)
    limit = p * 2.0**53
    top = (math.ceil(p * 2.0**27) - 1) >> 19
    candidate = bytes(0 if b <= top else 1 for b in range(256))
    unpack = _WORD_PAIR.unpack_from
    # One int object per vertex, as combinations() shares them: a fresh int
    # per edge end would hold ~0.7 MB more at n=8000.
    ids = tuple(range(n))
    edges = []
    total = n * (n - 1) // 2
    u, row_end = 0, n - 1  # row u holds pairs [row_end - (n - 1 - u), row_end)
    for start in range(0, total, _CHUNK_PAIRS):
        k = min(_CHUNK_PAIRS, total - start)
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        marks = words[3::8].translate(candidate)
        i = marks.find(0)
        while i >= 0:
            w0, w1 = unpack(words, 8 * i)
            if (w0 >> 5) * 67108864 + (w1 >> 6) < limit:
                pair = start + i
                while pair >= row_end:
                    u += 1
                    row_end += n - 1 - u
                edges.append((ids[u], ids[n - row_end + pair]))
            i = marks.find(0, i + 1)
    graph = nx.empty_graph(n)
    graph.add_edges_from(edges)
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
    if not isinstance(n, int) or n < 2:
        raise InputError(f"need n >= 2 (an int), got n={n!r}")
    if not 0 < avg_degree < math.inf:
        raise InputError(f"need 0 < avg_degree < inf, got avg_degree={avg_degree!r}")
    _check_weight_range(weight_range)
    rng = random.Random(seed)
    p = min(1.0, avg_degree / (n - 1))
    graph = _gnp_graph(n, p, seed)
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
    if rows < 1 or cols < 1:
        raise InputError(f"need rows, cols >= 1, got rows={rows!r}, cols={cols!r}")
    _check_weight_range(weight_range)
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
    _check_weight_range(weight_range)
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

    The map spans ``graph`` or this raises :class:`InputError`: on an empty
    graph, a ``root`` not in the graph, or a disconnected graph (naming the
    first vertex, in node order, that the root does not reach).
    """
    if graph.number_of_nodes() == 0:
        raise InputError("cannot span an empty graph")
    rng = random.Random(seed)
    if root is None:
        root = min(graph.nodes, key=repr)
    elif root not in graph:
        raise InputError(f"root {root!r} is not a vertex of the graph")
    if style == "shortest-path":
        paths = nx.single_source_dijkstra_path(graph, root, weight="weight")
        parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        for v, path in paths.items():
            if v != root:
                parent[v] = path[-2]
    elif style in ("bfs", "dfs"):
        walk = nx.bfs_edges if style == "bfs" else nx.dfs_edges
        parent = {root: None}
        for u, v in walk(graph, root):
            parent[v] = u
    elif style == "random":
        shadow = nx.Graph()
        for u, v in graph.edges:
            shadow.add_edge(u, v, weight=rng.random())
        # Vertices no edge names (a one-vertex graph), appended after the
        # ones the edges added so the MST sees the same node order.
        shadow.add_nodes_from(graph)
        mst = nx.minimum_spanning_tree(shadow)
        parent = {root: None}
        for u, v in nx.bfs_edges(mst, root):
            parent[v] = u
    else:
        raise InputError(f"unknown spanning-tree style {style!r}")
    if len(parent) < graph.number_of_nodes():
        missed = next(v for v in graph.nodes if v not in parent)
        raise InputError(
            f"graph is disconnected: vertex {missed!r} is unreachable from root {root!r}"
        )
    return parent
