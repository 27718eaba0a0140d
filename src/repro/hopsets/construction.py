"""Hopset construction over the *implicit* virtual graph (Theorem 1).

The paper consumes the hopsets of its companion papers [EN17a/b].  What the
routing scheme actually needs from Theorem 1 is:

1. a ``(β, ε)``-hopset for ``G' = (A_{k/2}, E')`` with a path-recovery
   mechanism,
2. built **without materializing G'** (edges of E' are discovered on the fly
   through B-bounded explorations in G), and
3. whose per-vertex storage -- the arboricity-style owner orientation -- is
   ``Õ(m^{ρ/2})`` words.

We realize these with the *Thorup-Zwick emulator* construction, which
Huang & Pettie ("Thorup-Zwick emulators are universally optimal hopsets",
IPL 2019) proved to be a (β, ε)-hopset for every ε with
``β = O((κ + 1/ε))^{κ-1}`` -- the same polylog-shape hop bound as
Theorem 1 (DESIGN.md, substitution 1).  Concretely, we sample a κ-level TZ
hierarchy *on the virtual vertices* and add, for each virtual ``u``:

* an edge to its nearest ``A'_i`` vertex (its level-``i`` pivot), and
* an edge to every virtual ``w`` whose virtual cluster contains ``u``
  (``u``'s *bunch*),

each weighted by the true G-distance (equal to the G'-distance by Claim 7)
and carrying its implementing G-path for path recovery.  Every edge is owned
by the bunch-side endpoint, so the out-degree -- and hence the hopset memory
per virtual vertex -- is ``κ - 1 + |B'(u)| = Õ(κ m^{1/κ})``, matching the
paper's Õ(n^{ρ/2}) with ``ρ = 1/κ``.

Distributed cost: every exploration here is a B-bounded multi-source
Bellman-Ford in G plus a Lemma-1 broadcast of the discovered edges; the
constructor charges those round counts explicitly (see ``_charge``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from ..congest.network import Network
from ..errors import InputError, InvariantViolation
from ..graphs.paths import Adjacency, dijkstra
from ..graphs.virtual import VirtualGraphOracle
from ..tz.hierarchy import Hierarchy, sample_hierarchy
from .hopset import Hopset

NodeId = Hashable
INF = math.inf


@dataclass
class HopsetBuildResult:
    """The hopset plus construction-cost observability."""

    hopset: Hopset
    hierarchy: Hierarchy
    kappa: int
    charged_rounds: int
    max_bunch_size: int

    @property
    def size(self) -> int:
        return self.hopset.size


def _chain(parent: Dict[NodeId, Optional[NodeId]], v: NodeId) -> List[NodeId]:
    """Walk Dijkstra parents from ``v`` back to the exploration root."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def build_hopset(
    net: Network,
    oracle: VirtualGraphOracle,
    *,
    kappa: int = 3,
    seed: int = 0,
) -> HopsetBuildResult:
    """Build the hopset for the oracle's implicit virtual graph.

    ``kappa`` trades hopset memory (Õ(κ m^{1/κ}) per virtual vertex)
    against the hop bound β (grows with κ); it plays the role of the
    paper's ``1/ρ``.
    """
    m = oracle.m
    if m < 1:
        raise InputError("virtual graph has no vertices")
    adj = Adjacency.of(net.graph)
    hopset = Hopset(virtual_vertices=list(oracle.virtual_vertices))
    hierarchy = sample_hierarchy(oracle.virtual_vertices, kappa, seed=seed)
    charged = 0

    # -- pivot distances per level, with G-paths --------------------------------
    # One B-bounded multi-source exploration per level: B rounds plus a
    # Lemma-1 broadcast of m pivot announcements.
    level_dist: List[Dict[NodeId, float]] = []
    for i in range(kappa):
        sources = sorted(hierarchy.set_at(i), key=repr)
        dist, parent = dijkstra(adj, sources)
        level_dist.append({v: dist.get(v, INF) for v in oracle.virtual_vertices})
        if 0 < i:
            for u in oracle.virtual_vertices:
                if u in dist and dist[u] > 0:
                    path = _chain(parent, u)  # u -> ... -> pivot
                    hopset.add_edge(u, path[-1], dist[u], path)
        rounds = oracle.hop_bound + m + net.hop_diameter_upper_bound()
        net.charge_rounds(rounds, messages=m)
        charged += rounds

    def next_level_dist(i: int, v: NodeId) -> float:
        return level_dist[i + 1][v] if i + 1 < kappa else INF

    # -- bunch edges: one limited exploration per virtual cluster root -----------
    # All roots of one level explore in parallel; congestion is bounded by
    # the max bunch size (the virtual analogue of Claim 6), so we charge
    # B * (1 + max_membership) rounds per level plus the edge broadcast.
    bunch_count: Dict[NodeId, int] = {v: 0 for v in oracle.virtual_vertices}
    for i in range(kappa):
        membership_this_level = 0
        for w in sorted(hierarchy.vertices_at_level(i), key=repr):

            def in_cluster(v: NodeId, d: float) -> bool:
                # Ordinary G-vertices relay freely; virtual vertices apply
                # the TZ cluster rule w.r.t. the *virtual* hierarchy.
                if not oracle.is_virtual(v):
                    return True
                return d < next_level_dist(i, v)

            dist, parent = dijkstra(adj, [w], predicate=in_cluster)
            for u in oracle.virtual_vertices:
                if u == w:
                    continue
                d = dist.get(u, INF)
                if d < next_level_dist(i, u):
                    path = _chain(parent, u)  # u -> ... -> w
                    hopset.add_edge(u, w, d, path)
                    bunch_count[u] += 1
                    membership_this_level = max(membership_this_level, bunch_count[u])
            # Path-recovery bookkeeping: vertices on stored paths keep one
            # parent pointer per exploration that reached them.
        rounds = oracle.hop_bound * (1 + membership_this_level)
        net.charge_rounds(rounds)
        charged += rounds

    # Broadcast the hopset edges (owners announce them): Lemma 1.
    rounds = 2 * (hopset.size + net.hop_diameter_upper_bound())
    net.charge_rounds(rounds, messages=hopset.size)
    charged += rounds

    # -- memory accounting ---------------------------------------------------------
    for u in oracle.virtual_vertices:
        words = 3 * hopset.out_degree(u) + 2 * kappa
        net.mem(u).store("hopset/edges", words)
    touched: Dict[NodeId, int] = {}
    for path in hopset.paths.values():
        for z in path[1:-1]:
            touched[z] = touched.get(z, 0) + 1
    for z, count in touched.items():
        net.mem(z).store("hopset/path-pointers", count)

    max_bunch = max(bunch_count.values()) if bunch_count else 0
    if hopset.size == 0 and m > 1:
        raise InvariantViolation("non-trivial virtual graph produced an empty hopset")
    return HopsetBuildResult(
        hopset=hopset,
        hierarchy=hierarchy,
        kappa=kappa,
        charged_rounds=charged,
        max_bunch_size=max_bunch,
    )
