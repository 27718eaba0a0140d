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

Distributed cost: the host runs each exploration as a (limited) Dijkstra
in G, charged as the B-bounded multi-source exploration it stands for, plus
a Lemma-1 broadcast of the discovered edges; :func:`build_hopset` charges
those round counts explicitly, one phase per step (``hopset/pivots-{i}``,
``hopset/bunches-{i}``, ``hopset/broadcast``).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional

from ..congest.network import Network
from ..errors import InputError, InvariantViolation
from ..graphs.paths import Adjacency, dijkstra
from ..graphs.virtual import VirtualGraphOracle
from ..telemetry.events import phase
from ..tz.hierarchy import sample_hierarchy
from .hopset import Hopset

NodeId = Hashable
INF = math.inf


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
) -> Hopset:
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
        with phase(net, f"hopset/pivots-{i}"):
            net.charge_rounds(rounds, messages=m)

    # -- bunch edges: one limited exploration per virtual cluster root -----------
    # All roots of one level explore in parallel; congestion is bounded by
    # the max bunch size (the virtual analogue of Claim 6), so we charge
    # B * (1 + max_membership) rounds per level plus the edge broadcast.
    # Ordinary G-vertices relay freely (bound ∞); virtual vertices apply the
    # TZ cluster rule w.r.t. the *virtual* hierarchy, d < d(v, A'_{i+1}).
    bunch_count: Dict[NodeId, int] = {v: 0 for v in oracle.virtual_vertices}
    for i in range(kappa):
        bound = dict.fromkeys(adj.rows, INF)
        if i + 1 < kappa:
            bound.update(level_dist[i + 1])
        membership_this_level = 0
        for w in sorted(hierarchy.vertices_at_level(i), key=repr):
            dist, parent = dijkstra(adj, [w], predicate=lambda v, d: d < bound[v])
            for u in oracle.virtual_vertices:
                if u == w:
                    continue
                d = dist.get(u, INF)
                if d < bound[u]:
                    path = _chain(parent, u)  # u -> ... -> w
                    hopset.add_edge(u, w, d, path)
                    bunch_count[u] += 1
                    membership_this_level = max(membership_this_level, bunch_count[u])
        with phase(net, f"hopset/bunches-{i}"):
            net.charge_rounds(oracle.hop_bound * (1 + membership_this_level))

    # Broadcast the hopset edges (owners announce them): Lemma 1.
    with phase(net, "hopset/broadcast"):
        net.charge_rounds(2 * (hopset.size + net.hop_diameter_upper_bound()),
                          messages=hopset.size)

    # -- memory accounting ---------------------------------------------------------
    net.store_each("hopset/edges", {
        u: 3 * hopset.out_degree(u) + 2 * kappa for u in oracle.virtual_vertices})
    # Path-recovery bookkeeping: vertices on stored paths keep one parent
    # pointer per exploration that reached them.
    touched: Dict[NodeId, int] = {}
    for path in hopset.paths.values():
        for z in path[1:-1]:
            touched[z] = touched.get(z, 0) + 1
    net.store_each("hopset/path-pointers", touched)

    if hopset.size == 0 and m > 1:
        raise InvariantViolation("non-trivial virtual graph produced an empty hopset")
    return hopset
