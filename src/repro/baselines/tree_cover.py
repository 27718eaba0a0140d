"""Hierarchical tree-cover routing, in the spirit of [ABNLP90] / [AP92].

The first row of the paper's Table 1: the classical approach routes through
a *hierarchy of ball covers*.  For every distance scale ``r = w_min·2^i``
(``O(log Λ)`` scales -- note the explicit aspect-ratio dependence the paper
eliminates), greedily pick ``r``-separated centers until every vertex is
within ``r`` of one, and build the shortest-path tree of each center
truncated at radius ``2r``.  A destination advertises, per scale, its
*home center* and its tree label in that center's ball tree.

Routing ``u -> v`` tries scales bottom-up: at the first scale whose radius
reaches ``d(u, v)``, the ball of ``v``'s home center contains ``u`` too,
and routing through that tree costs at most ``d_T(u,c) + d_T(c,v) <= 3r``
with ``r < 2 d(u,v)`` -- constant stretch (<= 6 + slack from tree paths),
but:

* tables hold one entry per ball containing the vertex per scale:
  ``O(overlap · log Λ)`` words (can approach Θ(n) on expanders);
* labels hold ``O(log Λ)`` entries;
* everything scales with log Λ, the dependence the paper's scheme avoids.

This gives the Table-1 benches a genuinely different point in the tradeoff
space to print next to the compact schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import networkx as nx

from ..errors import InputError, RoutingFailure
from ..graphs.paths import Adjacency, dijkstra
from ..graphs.validation import require_weighted_connected
from ..routing.artifacts import TreeRoutingScheme
from ..routing.tree_router import tree_forward
from ..tz.tree_scheme import build_tree_scheme

NodeId = Hashable


@dataclass
class CoverScale:
    """One distance scale of the hierarchy."""

    radius: float
    centers: List[NodeId]
    home_center: Dict[NodeId, NodeId]
    # ball trees, keyed by center; trees span the 2r-ball of the center
    trees: Dict[NodeId, TreeRoutingScheme]


@dataclass
class TreeCoverScheme:
    """The full hierarchical scheme."""

    scales: List[CoverScale]
    # per vertex: {(scale_index, center): member} derived view for routing
    membership: Dict[NodeId, Dict[Tuple[int, NodeId], bool]] = field(
        default_factory=dict
    )

    def max_table_words(self) -> int:
        worst = 0
        for v in self.membership:
            worst = max(worst, self.table_words(v))
        return worst

    def table_words(self, v: NodeId) -> int:
        words = 0
        for i, scale in enumerate(self.scales):
            for center, tree in scale.trees.items():
                if v in tree.index:
                    words += 2 + tree.table_words(v)
        return words

    def max_label_words(self) -> int:
        worst = 0
        for v in self.membership:
            words = 0
            for i, scale in enumerate(self.scales):
                c = scale.home_center[v]
                words += 2 + scale.trees[c].label_words(v)
            worst = max(worst, words)
        return worst


def build_tree_cover_scheme(
    graph: nx.Graph,
    *,
    base: float = 2.0,
    seed: int = 0,
) -> TreeCoverScheme:
    """Build the hierarchy of ball covers (centralized preprocessing)."""
    require_weighted_connected(graph)
    if base <= 1.0:
        raise InputError("scale base must exceed 1")
    weights = [float(d.get("weight", 1.0)) for _, _, d in graph.edges(data=True)]
    w_min = min(weights)
    # Upper bound on the weighted diameter via two BFS-like sweeps.
    some = sorted(graph.nodes, key=repr)[0]
    adj = Adjacency.of(graph)
    far_d, _ = dijkstra(adj, [some])
    diameter_bound = 2 * max(far_d.values())

    scales: List[CoverScale] = []
    radius = w_min
    while True:
        centers: List[NodeId] = []
        home: Dict[NodeId, NodeId] = {}
        uncovered = set(graph.nodes)
        while uncovered:
            c = min(uncovered, key=repr)
            centers.append(c)
            ball, _ = dijkstra(adj, [c], predicate=lambda v, d: d <= radius)
            for v, d in ball.items():
                if d <= radius and v in uncovered:
                    uncovered.discard(v)
                    home[v] = c
        trees: Dict[NodeId, TreeRoutingScheme] = {}
        for c in centers:
            dist, parent = dijkstra(
                adj, [c], predicate=lambda v, d: d <= 2 * radius
            )
            members = {v for v, d in dist.items() if d <= 2 * radius}
            tree_parent = {v: parent[v] for v in members}
            # shortest-path closure: parents of members are members
            for v in list(members):
                p = tree_parent[v]
                if p is not None and p not in members:
                    tree_parent[v] = None  # cannot happen on SPTs; guard
            trees[c] = build_tree_scheme(
                tree_parent, tree_id=("cover", radius, c))
        scales.append(
            CoverScale(radius=radius, centers=centers, home_center=home, trees=trees)
        )
        if radius >= diameter_bound:
            break
        radius *= base

    membership: Dict[NodeId, Dict[Tuple[int, NodeId], bool]] = {
        v: {} for v in graph.nodes
    }
    for i, scale in enumerate(scales):
        for c, tree in scale.trees.items():
            for v in tree.tables:
                membership[v][(i, c)] = True
    return TreeCoverScheme(scales=scales, membership=membership)


def route_cover(
    scheme: TreeCoverScheme,
    graph: nx.Graph,
    source: NodeId,
    target: NodeId,
) -> Tuple[List[NodeId], float]:
    """Route bottom-up through the first scale that covers the pair."""
    if source == target:
        return [source], 0.0
    for i, scale in enumerate(scheme.scales):
        center = scale.home_center[target]
        tree = scale.trees[center]
        if source not in tree.tables or target not in tree.tables:
            continue
        label = tree.labels[target]
        at = source
        path = [at]
        length = 0.0
        for _ in range(4 * len(tree.tables) + 4):
            nxt = tree_forward(at, tree.tables[at], label)
            if nxt is None:
                return path, length
            length += float(graph[at][nxt].get("weight", 1.0))
            at = nxt
            path.append(at)
        raise RoutingFailure("cover-tree routing exceeded its hop budget", path)
    raise RoutingFailure(
        f"no scale covers the pair ({source!r}, {target!r}); the top scale "
        "must span the graph"
    )


def theoretical_stretch(base: float = 2.0) -> float:
    """First covering scale has radius < base·d, route <= 3·radius."""
    return 3.0 * base

