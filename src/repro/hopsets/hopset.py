"""Hopset data structure with owner orientation and implementing paths.

A ``(β, ε)``-hopset ``H`` for the virtual graph ``G'`` (Section 2): a set of
weighted edges such that ``d_{G'}(u,v) <= d^{(β)}_{G'∪H}(u,v) <=
(1+ε) d_{G'}(u,v)`` for all virtual pairs.

Two properties of the paper's hopsets are load-bearing for the routing
scheme and are therefore first-class here:

* **Owner orientation / bounded arboricity.**  Every edge is stored at
  exactly one endpoint (its *owner*); the maximum number of edges a vertex
  owns is the quantity the paper bounds by Õ(n^{ρ/2}) -- "every vertex
  v' ∈ V' needs only to store its Õ(n^{1/k}) parents in the trees of the
  arboricity decomposition".  ``max_out_degree()`` is what memory accounting
  charges.
* **Path recovery** (Section 2).  Every hopset edge ``e = (x, y)`` records
  the path ``P(e)`` in ``G`` implementing it, with
  ``ω(P(e)) = ω_H(e)``; :mod:`repro.hopsets.path_recovery` walks these
  paths to hand distances to intermediate vertices.

``measure_hopbound`` computes the *empirical* β -- the smallest hop bound
for which the hopset inequality holds over sampled pairs -- which is how the
benchmarks report β instead of trusting the theorem (DESIGN.md,
substitution 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import networkx as nx

from ..errors import InputError, InvariantViolation
from ..graphs.paths import Adjacency, bounded_bellman_ford, dijkstra

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


@dataclass
class Hopset:
    """A weighted edge set over the virtual vertices, with G-paths."""

    virtual_vertices: List[NodeId]
    # owner -> {other endpoint -> weight}; each edge stored once, at its owner
    owned: Dict[NodeId, Dict[NodeId, float]] = field(default_factory=dict)
    # (owner, other) -> implementing path in G, owner-first
    paths: Dict[Edge, List[NodeId]] = field(default_factory=dict)

    def add_edge(
        self, owner: NodeId, other: NodeId, weight: float, path: Sequence[NodeId]
    ) -> None:
        """Insert (or improve) an edge owned by ``owner``.

        ``path`` is the implementing G-path from ``owner`` to ``other``;
        its endpoints must match and its length must equal ``weight`` (the
        caller computed both from one exploration).
        """
        if owner == other:
            raise InputError("hopset edges must join distinct vertices")
        if not path or path[0] != owner or path[-1] != other:
            raise InputError("implementing path must run owner -> other")
        bucket = self.owned.setdefault(owner, {})
        if other in bucket and bucket[other] <= weight:
            return
        bucket[other] = weight
        self.paths[(owner, other)] = list(path)

    # -- inspection -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(len(bucket) for bucket in self.owned.values())

    def out_degree(self, v: NodeId) -> int:
        """Edges *owned* by ``v`` -- the memory it must spend on the hopset."""
        return len(self.owned.get(v, {}))

    def max_out_degree(self) -> int:
        if not self.owned:
            return 0
        return max(len(bucket) for bucket in self.owned.values())

    def edges(self) -> Iterable[Tuple[NodeId, NodeId, float]]:
        for owner, bucket in self.owned.items():
            for other, weight in bucket.items():
                yield owner, other, weight

    def neighbors(self, v: NodeId) -> Dict[NodeId, float]:
        """All hopset edges incident on ``v`` (both directions).

        A vertex learns about unowned incident edges from their owners'
        broadcasts (Lemma 2); this accessor is the simulator-side view.
        """
        out = dict(self.owned.get(v, {}))
        for owner, bucket in self.owned.items():
            if v in bucket:
                w = bucket[v]
                if owner not in out or w < out[owner]:
                    out[owner] = w
        return out

    def path_of(self, owner: NodeId, other: NodeId) -> List[NodeId]:
        return self.paths[(owner, other)]

    def verify_paths(self, graph: nx.Graph) -> None:
        """Every implementing path must be a real G-path of matching length."""
        for (owner, other), path in self.paths.items():
            total = 0.0
            for a, b in zip(path, path[1:]):
                if not graph.has_edge(a, b):
                    raise InvariantViolation(f"path of ({owner!r},{other!r}) leaves G")
                total += float(graph[a][b].get("weight", 1.0))
            weight = self.owned[owner][other]
            if not math.isclose(total, weight, rel_tol=1e-9, abs_tol=1e-9):
                raise InvariantViolation(
                    f"path length {total} != edge weight {weight} "
                    f"for ({owner!r},{other!r})"
                )


def union_graph(virtual_graph: nx.Graph, hopset: Hopset) -> nx.Graph:
    """``G' ∪ H`` -- tests-only helper (materializes G')."""
    union = nx.Graph()
    union.add_nodes_from(virtual_graph.nodes)
    for u, v, data in virtual_graph.edges(data=True):
        union.add_edge(u, v, weight=float(data.get("weight", 1.0)))
    for u, v, w in hopset.edges():
        if union.has_edge(u, v):
            union[u][v]["weight"] = min(union[u][v]["weight"], w)
        else:
            union.add_edge(u, v, weight=w)
    return union


def measure_hopbound(
    virtual_graph: nx.Graph,
    hopset: Hopset,
    epsilon: float,
    *,
    sample_sources: int = 12,
    max_beta: int = 512,
) -> int:
    """The smallest β with ``d^{(β)}_{G'∪H} <= (1+ε) d_{G'}`` over sampled
    sources (exact over their full rows).  Tests-only: materializes G'."""
    union = Adjacency.of(union_graph(virtual_graph, hopset))
    exact_graph = Adjacency.of(virtual_graph)
    sources = sorted(exact_graph.rows, key=repr)[:sample_sources]
    worst_beta = 1
    for s in sources:
        exact, _ = dijkstra(exact_graph, [s])
        lo, hi = 1, max_beta
        # The β needed for this source: binary search over bounded BF depth.
        def ok(beta: int) -> bool:
            est, _, _ = bounded_bellman_ford(union, {s: 0.0}, beta)
            return all(
                est.get(v, math.inf) <= (1 + epsilon) * d + 1e-12
                for v, d in exact.items()
            )

        if not ok(hi):
            raise InvariantViolation(
                f"hopset inequality unsatisfiable within β={max_beta} from {s!r}"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid + 1
        worst_beta = max(worst_beta, lo)
    return worst_beta
