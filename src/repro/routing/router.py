"""Routing-phase simulator and stretch measurement.

The preprocessing phase (whether centralized or distributed) ends with every
vertex holding a table and every destination owning a label.  This module
simulates the *routing phase*: a message hops vertex to vertex, and each
vertex's forwarding decision consumes **only** its own table, the
destination label, and the O(log n)-word header -- exactly the information
model of the paper's introduction.

``route_in_graph`` implements the Appendix B scheme: the *source* scans the
destination label's level entries in increasing order and commits to the
first pivot tree that contains the source itself (mode ``"first"``, the
4k-3 analysis), or to the candidate minimizing the advertised
source-to-root-to-destination upper bound (mode ``"best"``, the
source-side refinement); the choice is written into the header and every
subsequent hop is pure tree routing.

``measure_stretch`` compares routed path lengths against exact Dijkstra
distances over a pair sample -- the "Stretch" column of Table 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import networkx as nx

from ..errors import RoutingFailure
from ..graphs.paths import Adjacency, dijkstra
from .artifacts import GraphRoutingScheme, Header, TreeRoutingScheme
from .tree_router import tree_forward

NodeId = Hashable


@dataclass
class RouteResult:
    """Outcome of routing one message."""

    path: List[NodeId]
    length: float
    header_words: int

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def route_in_tree(
    scheme: TreeRoutingScheme,
    source: NodeId,
    target: NodeId,
    *,
    weight_of=None,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Route ``source -> target`` inside one tree scheme.

    ``weight_of(u, v)`` supplies edge weights for the path-length report
    (hop count is used when omitted).  The hop budget guards against a buggy
    scheme looping forever; exact tree routing never exceeds ``2 * depth``.
    """
    label = scheme.labels[target]
    budget = max_hops if max_hops is not None else 2 * len(scheme.tables) + 2
    path = [source]
    length = 0.0
    at = source
    for _ in range(budget):
        nxt = tree_forward(at, scheme.tables[at], label)
        if nxt is None:
            return RouteResult(path=path, length=length, header_words=label.word_size())
        if nxt not in scheme.tables:
            raise RoutingFailure(f"forwarded to {nxt!r}, which has no table", path)
        length += weight_of(at, nxt) if weight_of is not None else 1.0
        at = nxt
        path.append(at)
    raise RoutingFailure(f"exceeded hop budget {budget}", path)


def route_in_graph(
    scheme: GraphRoutingScheme,
    graph: nx.Graph,
    source: NodeId,
    target: NodeId,
    *,
    mode: str = "first",
) -> RouteResult:
    """Route ``source -> target`` with the general-graph scheme."""
    if source == target:
        return RouteResult(path=[source], length=0.0, header_words=0)
    label = scheme.labels[target]
    source_table = scheme.tables[source]

    candidates: List[Tuple[float, int, Header]] = []
    for i, entry in enumerate(label.entries):
        if entry is None:
            continue
        tree_id, dist_to_root, tree_label = entry
        if not source_table.has_tree(tree_id):
            continue
        my_table = source_table.trees[tree_id]
        bound = (my_table.root_distance or 0.0) + dist_to_root
        candidates.append((bound, i, Header(tree=tree_id, tree_label=tree_label)))
        if mode == "first":
            break
    if not candidates:
        raise RoutingFailure(
            f"no common cluster tree between {source!r} and {target!r} "
            "(top-level cluster should always be shared)"
        )
    if mode == "best":
        header = min(candidates, key=lambda c: (c[0], c[1]))[2]
    else:
        header = candidates[0][2]

    def weight_of(u: NodeId, v: NodeId) -> float:
        return float(graph[u][v].get("weight", 1.0))

    path = [source]
    length = 0.0
    at = source
    budget = 4 * graph.number_of_nodes() + 4
    for _ in range(budget):
        table = scheme.tables[at].trees.get(header.tree)
        if table is None:
            raise RoutingFailure(
                f"vertex {at!r} has no table for tree {header.tree!r}", path
            )
        nxt = tree_forward(at, table, header.tree_label)
        if nxt is None:
            if at != target:
                raise RoutingFailure(
                    f"tree routing terminated at {at!r}, not {target!r}", path
                )
            return RouteResult(path=path, length=length, header_words=header.word_size())
        if not graph.has_edge(at, nxt):
            raise RoutingFailure(f"({at!r}, {nxt!r}) is not an edge", path)
        length += weight_of(at, nxt)
        at = nxt
        path.append(at)
    raise RoutingFailure(f"exceeded hop budget {budget}", path)


@dataclass
class StretchReport:
    """Stretch statistics over a pair sample."""

    pairs: int
    max_stretch: float
    mean_stretch: float
    worst_pair: Optional[Tuple[NodeId, NodeId]]

    def __str__(self) -> str:
        return (
            f"pairs={self.pairs} max_stretch={self.max_stretch:.4f} "
            f"mean_stretch={self.mean_stretch:.4f} worst={self.worst_pair}"
        )


def sample_pairs(
    nodes: Sequence[NodeId],
    count: int,
    seed: int = 0,
    *,
    rng: Optional[random.Random] = None,
) -> List[Tuple[NodeId, NodeId]]:
    """A deterministic sample of distinct ordered vertex pairs.

    Pass ``rng`` to draw from a caller-owned :class:`random.Random`
    stream (``seed`` is then ignored): experiment drivers that compare
    several schemes hand each measurement the same generator -- or the
    same ``seed`` -- so every scheme is scored on the *identical* pair
    sample and stretch deltas are never sampling noise.
    """
    rng = rng if rng is not None else random.Random(seed)
    nodes = list(nodes)
    pairs = []
    for _ in range(count):
        u, v = rng.sample(nodes, 2)
        pairs.append((u, v))
    return pairs


def measure_stretch(
    scheme: GraphRoutingScheme,
    graph: nx.Graph,
    pairs: Union[int, Sequence[Tuple[NodeId, NodeId]]],
    *,
    mode: str = "first",
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> StretchReport:
    """Route every pair and compare against exact distances.

    ``pairs`` is either an explicit pair sequence (reuse one sample
    across schemes for an apples-to-apples comparison) or an ``int``
    count, in which case a deterministic sample is drawn here via
    :func:`sample_pairs` with ``seed`` / ``rng``.
    """
    if isinstance(pairs, int):
        pairs = sample_pairs(list(graph.nodes), pairs, seed, rng=rng)
    by_source: Dict[NodeId, List[NodeId]] = {}
    for u, v in pairs:
        by_source.setdefault(u, []).append(v)
    worst = 0.0
    worst_pair: Optional[Tuple[NodeId, NodeId]] = None
    total = 0.0
    count = 0
    adj = Adjacency.of(graph)
    for u, targets in by_source.items():
        dist, _ = dijkstra(adj, [u])
        for v in targets:
            result = route_in_graph(scheme, graph, u, v, mode=mode)
            exact = dist[v]
            stretch = result.length / exact if exact > 0 else 1.0
            total += stretch
            count += 1
            if stretch > worst:
                worst = stretch
                worst_pair = (u, v)
    return StretchReport(
        pairs=count,
        max_stretch=worst,
        mean_stretch=total / max(1, count),
        worst_pair=worst_pair,
    )
