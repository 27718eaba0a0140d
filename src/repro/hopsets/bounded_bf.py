"""Low-memory hop-bounded Bellman-Ford on ``G' ∪ H`` (Lemma 2).

One Bellman-Ford iteration over the virtual graph plus hopset is implemented
as the paper's proof of Lemma 2 does:

* **E' step** -- every estimate-holding vertex initiates/relays a B-bounded
  exploration in G ("first it will initiate an exploration in G for B
  rounds; in each round, every vertex u ∈ V will forward the smallest value
  it received so far").  This simultaneously relaxes all E' edges *without
  knowing them* and hands estimates to the ordinary vertices en route.
* **H step** -- every virtual vertex broadcasts its current estimate
  together with the hopset edges it owns (Lemma 1 over the BFS tree);
  the opposite endpoints relax.  Rounds: ``O((m·α + D) log n)`` with the
  randomized start times of the Lemma 2 proof; memory per vertex
  ``O(α + log n)``.

Limited explorations (Appendix B) are expressed by one gate,
``forward_if(v, est)``, which every caller builds as ``est < bound[v]``
(:func:`repro.core.high_levels.cluster_bound` holds the ``(1+ε)^2`` rule for
virtual vertices and the ``(1+ε)`` rule for ordinary ones).  It is monotone
in the estimate: a vertex that forwards at some value forwards at every
lower one.

Explorations resume from their fixpoint.  Only a vertex whose estimate
changed can offer a neighbour something new, so an E' sweep scans only the
estimates that can still relax a neighbour -- the improvement-only rule of
a distributed Bellman-Ford, where a vertex speaks only when its value
dropped.  After a sweep that reached its fixpoint before ``B`` hops, the
next sweep's frontier is, in ``est`` order, every vertex whose estimate the
H step lowered plus every neighbour of a vertex whose sweep improvement the
``1e-15`` rule held back (its estimate stayed above what its neighbours
were relaxed against).  The first sweep, and any sweep after one that used
all ``B`` hops, scan every estimate.  Every other estimate is unchanged at
a fixpoint and, the gate being monotone, offers no strict improvement, so
the result is the full rescan's, dict order included.

This module is host computation only: it charges no round and meters no
memory.  :mod:`repro.core.high_levels` charges every sweep as ``B`` rounds
and every H step as ``O((m·α + D) log n)``, and meters the words each
vertex stores, so no simulated count, phase or memory figure depends on
the frontier.

The result tracks, for every vertex, the current estimate, the G-parent
implementing it (when it arrived via an exploration in G), and -- for
virtual vertices whose best estimate arrived over a hopset edge -- the edge
itself, to be expanded later by :mod:`repro.hopsets.path_recovery`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ..errors import InputError
from ..graphs.virtual import VirtualGraphOracle
from .hopset import Hopset

NodeId = Hashable
INF = math.inf
Gate = Optional[Callable[[NodeId, float], bool]]


@dataclass
class ExplorationState:
    """Estimates and provenance after a (possibly limited) exploration."""

    est: Dict[NodeId, float] = field(default_factory=dict)
    gparent: Dict[NodeId, Optional[NodeId]] = field(default_factory=dict)
    # virtual vertex -> (owner, other, reversed?) of the winning hopset edge
    hvia: Dict[NodeId, Tuple[NodeId, NodeId, bool]] = field(default_factory=dict)

    def value(self, v: NodeId) -> float:
        return self.est.get(v, INF)


def hopset_bellman_ford(
    oracle: VirtualGraphOracle,
    hopset: Hopset,
    sources: Mapping[NodeId, float],
    beta: int,
    *,
    forward_if: Gate = None,
) -> ExplorationState:
    """Run ``beta`` iterations of Bellman-Ford over ``G' ∪ H``.

    ``sources`` seeds initial estimates (typically ``{root: 0}`` or zeros on
    a whole level set ``A_{i+1}``).  One last B-bounded exploration in G
    always follows the virtual iterations, so every *ordinary* vertex holds
    its estimate too (the paper's "we perform another B-bounded exploration
    in G" steps).  ``forward_if`` (default: every vertex forwards) gates
    the E' sweeps and the H step alike.  The caller charges the rounds and
    meters the memory.
    """
    if beta < 1:
        raise InputError("beta must be >= 1")
    state = ExplorationState()
    for s, d0 in sources.items():
        state.est[s] = float(d0)
        state.gparent[s] = None

    gate = forward_if or (lambda _v, _value: True)
    rows = oracle.adjacency.rows

    def graph_sweep(resume: Optional[Set[NodeId]]) -> Optional[Set[NodeId]]:
        """E' step: B-bounded exploration in G from the estimates in
        ``resume`` (all of them when None).  Returns the vertices the next
        sweep must rescan, or None when this one used all B hops."""
        frontier: Optional[List[NodeId]] = None
        if resume is not None:
            frontier = [v for v in state.est if v in resume]
        dist, parent, used = oracle.relax_virtual_edges(
            state.est, forward_if=forward_if, frontier=frontier
        )
        stale: Set[NodeId] = set()
        known = state.est.get
        for v, d in dist.items():
            old = known(v, INF)
            if d >= old:
                continue
            if d < old - 1e-15:
                state.est[v] = d
                state.gparent[v] = parent[v]
                state.hvia.pop(v, None)
            else:
                # Held back: v's neighbours were relaxed against d, not est.
                stale.update(u for u, _w, _tie in rows[v])
        return None if used == oracle.hop_bound else stale

    resume: Optional[Set[NodeId]] = None
    for _ in range(beta):
        resume = graph_sweep(resume)

        # -- H step: owners broadcast estimates + owned edges --------------------
        improved: Dict[NodeId, Tuple[float, Tuple[NodeId, NodeId, bool]]] = {}
        for owner, bucket in hopset.owned.items():
            for other, weight in bucket.items():
                d_owner = state.value(owner)
                if d_owner < INF and gate(owner, d_owner):
                    cand = d_owner + weight
                    if cand < state.value(other) and cand < improved.get(
                        other, (INF, None)
                    )[0]:
                        improved[other] = (cand, (owner, other, False))
                d_other = state.value(other)
                if d_other < INF and gate(other, d_other):
                    cand = d_other + weight
                    if cand < state.value(owner) and cand < improved.get(
                        owner, (INF, None)
                    )[0]:
                        improved[owner] = (cand, (owner, other, True))
        for v, (cand, via) in improved.items():
            if cand < state.value(v) - 1e-15:
                state.est[v] = cand
                state.gparent[v] = None
                state.hvia[v] = via
                if resume is not None:
                    resume.add(v)

    graph_sweep(resume)
    return state
