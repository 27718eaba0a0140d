"""Landmark (hub) routing -- a simple non-compact baseline for Table 1.

A classical folklore scheme: pick ``Θ(sqrt n)`` landmarks, build the
shortest-path tree of each, and route ``u -> v`` inside the tree of ``v``'s
nearest landmark.  Every vertex belongs to *every* landmark tree, so tables
are Θ(sqrt n) words -- the memory/table regime the compact schemes of the
paper are designed to beat -- while the stretch is only bounded by
``1 + 2 d(v, L)/d(u, v)`` (good on average, unbounded in the worst case).

It reuses the library's artifacts, so the Table-1 bench can print it with
the same columns as the TZ and paper schemes.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, List, Optional

import networkx as nx

from ..errors import InputError
from ..graphs.paths import Adjacency, dijkstra, nearest_in_set
from ..graphs.validation import require_weighted_connected
from ..routing.artifacts import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    TreeRoutingScheme,
)
from ..tz.tree_scheme import build_tree_scheme

NodeId = Hashable


def choose_landmarks(
    graph: nx.Graph,
    count: Optional[int],
    seed: int,
    *,
    rng: Optional[random.Random] = None,
) -> List[NodeId]:
    """Pick the landmark set; ``rng`` injects a caller-owned sampling
    stream (``seed`` is then ignored), matching ``sample_pairs``."""
    n = graph.number_of_nodes()
    if count is None:
        count = max(1, math.ceil(math.sqrt(n)))
    if not (1 <= count <= n):
        raise InputError(f"landmark count {count} out of range")
    if rng is None:
        rng = random.Random(f"landmarks/{seed}")
    return sorted(rng.sample(sorted(graph.nodes, key=repr), count), key=repr)


def build_landmark_scheme(
    graph: nx.Graph,
    *,
    landmarks: Optional[int] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> GraphRoutingScheme:
    """Build the landmark scheme (centralized preprocessing)."""
    require_weighted_connected(graph)
    chosen = choose_landmarks(graph, landmarks, seed, rng=rng)

    tree_schemes: Dict[Hashable, TreeRoutingScheme] = {}
    dist_by_landmark: Dict[NodeId, Dict[NodeId, float]] = {}
    adj = Adjacency.of(graph)
    for ell in chosen:
        dist, parent = dijkstra(adj, [ell])
        dist_by_landmark[ell] = dist
        tree_schemes[ell] = build_tree_scheme(
            parent, tree_id=ell, root_distance=lambda v, d=dist: d[v]
        )

    tables: Dict[NodeId, GraphTable] = {v: GraphTable(vertex=v) for v in graph.nodes}
    for ell, scheme in tree_schemes.items():
        for v, table in scheme.tables.items():
            tables[v].trees[ell] = table

    _, owner = nearest_in_set(adj, chosen)
    labels: Dict[NodeId, GraphLabel] = {}
    for v in graph.nodes:
        ell = owner[v]
        labels[v] = GraphLabel(
            vertex=v,
            entries=((ell, dist_by_landmark[ell][v], tree_schemes[ell].labels[v]),),
        )
    return GraphRoutingScheme(k=1, tables=tables, labels=labels, tree_schemes=tree_schemes)
