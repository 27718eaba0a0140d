"""The implicit virtual graph ``G' = (V', E')`` of Appendix B.

``V' = A_{k/2}`` is a ~sqrt(n)-vertex sample and ``E'`` corresponds to
``B``-bounded distances in ``G`` with ``B = Theta(sqrt(n) log n)`` (Claim 7
guarantees that whp every shortest path with >= B hops passes through V', so
``d_{G'} = d_G`` on V').

The paper's central memory trick is that G' is **never materialized**: edges
are discovered on the fly by B-bounded explorations in G.  This module is
that oracle.  :class:`VirtualGraphOracle` answers

* ``relax_virtual_edges(estimates) -> B-bounded distances`` (one
  Bellman-Ford iteration of Lemma 2 restricted to E'-edges), and
* ``edge_row(v) -> {u: weight}`` for construction steps that need the
  incident E'-edges of one virtual vertex at a time (hopset construction),

while counting how many virtual edges were ever *computed* -- tests assert
this stays far below ``|V'|^2``, i.e. the graph really was left implicit.

Round accounting: each B-bounded exploration costs ``B`` rounds in G
(charged by the callers, who know which phase they run in).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import networkx as nx

from ..errors import InputError
from .paths import Adjacency, bounded_bellman_ford

NodeId = Hashable


def default_hop_bound(n: int, c: float = 2.0) -> int:
    """``B = min(n, ceil(c * sqrt(n) * ln n))`` -- Claim 7's bound, capped.

    The paper uses ``B = 4 sqrt(n) ln n``; at laptop scales that exceeds
    ``n``, so we cap (a cap only makes explorations more complete, never
    less correct).
    """
    if n < 1:
        raise InputError("n must be positive")
    return int(min(n, math.ceil(c * math.sqrt(n) * max(1.0, math.log(n)))))


class VirtualGraphOracle:
    """B-bounded-distance access to the implicit virtual graph."""

    def __init__(
        self,
        graph: nx.Graph,
        virtual_vertices: Iterable[NodeId],
        hop_bound: int,
    ) -> None:
        self.graph = graph
        #: The snapshot every exploration runs on, taken here: edges added
        #: to ``graph`` afterwards are not seen by this oracle.
        self.adjacency = Adjacency.of(graph)
        self.virtual_vertices: List[NodeId] = sorted(set(virtual_vertices), key=repr)
        self._virtual_set: Set[NodeId] = set(self.virtual_vertices)
        if hop_bound < 1:
            raise InputError("hop bound must be >= 1")
        self.hop_bound = hop_bound
        self.edges_computed = 0
        self._row_cache: Dict[NodeId, Dict[NodeId, float]] = {}

    @property
    def m(self) -> int:
        """Number of virtual vertices ``|V'|``."""
        return len(self.virtual_vertices)

    def is_virtual(self, v: NodeId) -> bool:
        return v in self._virtual_set

    # -- one Bellman-Ford step over E' -------------------------------------

    def relax_virtual_edges(
        self,
        estimates: Mapping[NodeId, float],
        *,
        forward_if: Optional[Callable[[NodeId, float], bool]] = None,
        frontier: Optional[Iterable[NodeId]] = None,
    ) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]], int]:
        """One E'-relaxation: B-bounded exploration in G seeded by
        ``estimates`` (virtual vertices' current Bellman-Ford values).

        Returns the improved estimates *for all of V* (the distributed
        exploration reaches ordinary vertices too -- the approximate-cluster
        stage needs them), the Bellman-Ford parents in G and the number of
        passes the kernel ran (below ``hop_bound`` only when it reached a
        fixpoint).  ``frontier`` is :func:`bounded_bellman_ford`'s: the
        estimates the first pass scans (default: all).  This is the "first it
        will initiate an exploration in G for B rounds" step in the proof of
        Lemma 2.
        """
        return bounded_bellman_ford(
            self.adjacency, estimates, self.hop_bound,
            forward_if=forward_if, frontier=frontier,
        )

    # -- explicit edge rows (for hopset construction) ------------------------

    def edge_row(self, v: NodeId) -> Dict[NodeId, float]:
        """The E'-edges incident on virtual vertex ``v``: B-bounded distances
        from ``v`` to every other virtual vertex it can reach in B hops.

        Cached; the total number of distinct rows ever computed is what
        tests use to verify G' stays implicit.
        """
        if v not in self._virtual_set:
            raise InputError(f"{v!r} is not a virtual vertex")
        if v in self._row_cache:
            return self._row_cache[v]
        dist, _, _ = bounded_bellman_ford(self.adjacency, {v: 0.0}, self.hop_bound)
        row = {
            u: d
            for u, d in dist.items()
            if u != v and u in self._virtual_set and d < math.inf
        }
        self._row_cache[v] = row
        self.edges_computed += len(row)
        return row

    # -- reference-only helpers (tests / validation) --------------------------

    def materialize(self) -> nx.Graph:
        """Build G' explicitly.  FOR TESTS ONLY -- the algorithms never call
        this (and a test asserts they don't need to)."""
        virt = nx.Graph()
        virt.add_nodes_from(self.virtual_vertices)
        for v in self.virtual_vertices:
            for u, w in self.edge_row(v).items():
                if virt.has_edge(v, u):
                    virt[v][u]["weight"] = min(virt[v][u]["weight"], w)
                else:
                    virt.add_edge(v, u, weight=w)
        return virt
