"""Approximate pivots and approximate clusters for levels ``i >= ⌈k/2⌉``.

This is the hopset-driven half of Appendix B:

* **Approximate pivots** -- β iterations of Bellman-Ford in ``G' ∪ H``
  rooted at the whole level set ``A_{i+1}``, followed by a final B-bounded
  exploration in G, give every vertex ``u`` an estimate
  ``d(u, A_{i+1}) <= d̂(u, A_{i+1}) <= (1+ε) d(u, A_{i+1})`` (Eq. 5, whp).

* **Approximate clusters** -- for each root ``v ∈ A_i \\ A_{i+1}``, a
  *limited* exploration in ``G' ∪ H`` under one monotone gate,
  ``est < bound[u]``: :func:`cluster_bound` computes the bound once per
  level, ``d̂(u, A_{i+1})/(1+ε)^2`` at a virtual vertex and
  ``d̂(u, A_{i+1})/(1+ε)`` at an ordinary one.  Hopset edges on the
  winning forest are expanded by the path-recovery mechanism, and a final
  limited B-bounded sweep in G grows the tree to the remaining members.
  The result is a tree ``C̃(v)`` in G with ``C_{6ε}(v) ⊆ C̃(v) ⊆ C(v)``
  (Claims 9-10, asserted in tests against the centralized reference).

The exploration kernels (:func:`repro.hopsets.bounded_bf.hopset_bellman_ford`,
:func:`repro.hopsets.path_recovery.recover_paths`) are host computation;
this module alone charges their rounds and meters their memory.  The pivot
exploration is charged once in its phase; all cluster explorations of one
level, path recovery included, are charged once by the level schedule.

Memory per vertex: 2 words per cluster containing it plus the hopset
adjacency charged at construction -- Õ(n^{1/k}) in total by Claim 6.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional

from ..congest.network import Network
from ..errors import InvariantViolation
from ..graphs.virtual import VirtualGraphOracle
from ..hopsets.bounded_bf import ExplorationState, hopset_bellman_ford
from ..hopsets.hopset import Hopset
from ..hopsets.path_recovery import recover_paths
from ..telemetry.events import phase
from ..tz.clusters import ClusterTree, claim6_bound
from ..tz.hierarchy import Hierarchy

NodeId = Hashable
INF = math.inf


def approximate_pivot_distances(
    net: Network,
    oracle: VirtualGraphOracle,
    hopset: Hopset,
    level_set,
    beta: int,
    *,
    level_index: int,
) -> Dict[NodeId, float]:
    """``d̂(u, A_i)`` for every vertex ``u`` (∞ when the set is empty)."""
    members = sorted(level_set, key=repr)
    if not members:
        return {v: INF for v in net.nodes()}
    with phase(net, f"pivots/approx-{level_index}"):
        state = hopset_bellman_ford(
            oracle, hopset, {a: 0.0 for a in members}, beta
        )
        # β iterations of one B-round sweep and one H step, then the final
        # sweep (Lemma 2).  This H step reads ⌊log₂ n⌋; the level schedule
        # of build_high_level_clusters charges ⌈log₂ n⌉ (ROADMAP 18(b)).
        log_n = max(1, int(math.log2(max(2, net.n))))
        h_step = (
            oracle.m * max(1, hopset.max_out_degree())
            + net.hop_diameter_upper_bound()
        ) * log_n
        net.charge_rounds(
            beta * (oracle.hop_bound + h_step) + oracle.hop_bound
        )
        net.add_each(f"pivots/{level_index}/estimates", state.est, 2)
    out = {v: state.value(v) for v in net.nodes()}
    for v, d in out.items():
        if d == INF:
            raise InvariantViolation(
                f"approximate pivot exploration missed vertex {v!r}"
            )
    net.store_each(f"pivots/approx-{level_index}", dict.fromkeys(out, 2))
    return out


def cluster_bound(
    oracle: VirtualGraphOracle,
    next_est: Mapping[NodeId, float],
    epsilon: float,
) -> Dict[NodeId, float]:
    """The Appendix B cluster rule's bound per vertex: a vertex forwards
    while its estimate is below ``d̂(v, A_{i+1})/(1+ε)^2`` if virtual and
    ``d̂(v, A_{i+1})/(1+ε)`` if ordinary (∞ stays ∞)."""
    virtual_factor = (1.0 + epsilon) ** 2
    graph_factor = 1.0 + epsilon
    is_virtual = oracle.is_virtual
    return {
        v: limit / (virtual_factor if is_virtual(v) else graph_factor)
        for v, limit in next_est.items()
    }


def build_approximate_cluster(
    net: Network,
    oracle: VirtualGraphOracle,
    hopset: Hopset,
    root: NodeId,
    level: int,
    bound: Mapping[NodeId, float],
    beta: int,
) -> ClusterTree:
    """One limited exploration rooted at ``root``, gated by
    ``est < bound[v]`` (:func:`cluster_bound`): the tree ``C̃(root)``.

    Meters its words; its rounds are charged by the level schedule of
    :func:`build_high_level_clusters`.
    """
    with phase(net, f"clusters/approx-{level}"):
        state = hopset_bellman_ford(
            oracle, hopset, {root: 0.0}, beta,
            forward_if=lambda v, d: d < bound[v],
        )
        net.add_each(f"cl/{level}/estimates", state.est, 2)
    with phase(net, f"clusters/recovery-{level}"):
        net.add_each(f"cl/{level}/recovered",
                     recover_paths(net.graph, hopset, state), 2)
    return _assemble_tree(net, root, level, state, bound)


def _assemble_tree(
    net: Network,
    root: NodeId,
    level: int,
    state: ExplorationState,
    bound: Mapping[NodeId, float],
) -> ClusterTree:
    """Membership = gate-passing vertices, closed under parent chains.

    Vertices on implementing paths of used hopset/E' edges join the tree
    unconditionally ("we add all the vertices in G on the B-bounded path
    from x to y"); closing each member's parent chain realizes exactly that.
    """
    passing = [v for v, est in state.est.items() if v == root or est < bound[v]]
    members: Dict[NodeId, float] = {}
    parent: Dict[NodeId, Optional[NodeId]] = {}
    for v in passing:
        chain: List[NodeId] = []
        cursor: Optional[NodeId] = v
        while cursor is not None and cursor not in members:
            chain.append(cursor)
            cursor = state.gparent.get(cursor)
        if cursor is None and chain[-1] != root:
            raise InvariantViolation(
                f"member {v!r} of cluster {root!r} has a broken parent chain "
                f"(dangles at {chain[-1]!r})"
            )
        for node in chain:
            members[node] = state.value(node)
            parent[node] = state.gparent.get(node)
    net.add_each("clusters/membership", members, 2)
    parent[root] = None
    members[root] = 0.0
    for v, p in parent.items():
        if p is not None and not net.has_edge(v, p):
            raise InvariantViolation(
                f"cluster tree of {root!r} uses non-edge ({v!r}, {p!r})"
            )
    return ClusterTree(root=root, level=level, dist=members, parent=parent)


def build_high_level_clusters(
    net: Network,
    oracle: VirtualGraphOracle,
    hopset: Hopset,
    hierarchy: Hierarchy,
    start_level: int,
    *,
    epsilon: float,
    beta: int,
):
    """All approximate cluster trees for levels ``start_level .. k-1``.

    Returns ``(trees, pivot_estimates)`` where ``pivot_estimates[i]`` holds
    ``d̂(u, A_i)`` for the approximate levels ``start_level+1 .. k-1`` --
    the label-assembly stage filters candidate entries against them.
    """
    k = hierarchy.k
    n = net.n
    roots_per_vertex = math.ceil(claim6_bound(n, k))
    trees: Dict[NodeId, ClusterTree] = {}
    pivot_estimates: Dict[int, Dict[NodeId, float]] = {}
    for i in range(start_level, k):
        next_est = approximate_pivot_distances(
            net,
            oracle,
            hopset,
            hierarchy.set_at(i + 1),
            beta,
            level_index=i + 1,
        )
        if i + 1 < k:
            pivot_estimates[i + 1] = next_est
        bound = cluster_bound(oracle, next_est, epsilon)
        for root in hierarchy.vertices_at_level(i):
            trees[root] = build_approximate_cluster(
                net, oracle, hopset, root, i, bound, beta
            )
        # One parallel schedule for all of this level's explorations
        # (Appendix B): per Bellman-Ford iteration, the E' step costs
        # B * (congestion allowance) rounds -- Claim 6 bounds how many
        # cluster explorations traverse one vertex -- and the H step costs
        # Õ(m·α + D) because the hopset edges broadcast once serve every
        # cluster.  Path recovery adds Õ((|H|·C + D)·β).  This H step reads
        # ⌈log₂ n⌉; approximate_pivot_distances charges ⌊log₂ n⌋ (ROADMAP 18(b)).
        alpha = hopset.max_out_degree()
        d_bound = net.hop_diameter_upper_bound()
        log_n = max(1, math.ceil(math.log2(max(2, n))))
        per_iteration = (
            oracle.hop_bound * min(roots_per_vertex, max(1, len(hierarchy.vertices_at_level(i))))
            + (oracle.m * max(1, alpha) + d_bound) * log_n
        )
        recovery = (hopset.size * roots_per_vertex + d_bound) * beta
        with phase(net, f"clusters/level-{i}-schedule"):
            net.charge_rounds(per_iteration * beta + recovery)
    return trees, pivot_estimates
