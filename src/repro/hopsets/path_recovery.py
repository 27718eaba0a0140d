"""The path-recovery mechanism (Section 2).

After a hop-bounded Bellman-Ford over ``G' ∪ H``, some vertices' best
estimates arrived over hopset edges.  A hopset edge ``e = (x, y)`` is
implemented by a path ``P(e)`` in G of the same length; the path-recovery
protocol walks these paths so that

* every intermediate vertex ``z ∈ P(e)`` learns the root(s) it now has an
  approximate distance to, the estimate ``d̂(z) <= d_P(z, x) + d̂(x)``, and
  a parent toward the root ("v will know of a parent, a neighbor in some
  path P(e), so that v ∈ P(e), implementing d̂(v,z)"), and
* the far endpoint gets a G-parent, so the exploration's provenance becomes
  a parent forest made of *graph edges only* -- the tree the routing scheme
  will route in.

The walk is host computation only.  The protocol takes
``Õ((|H| · C + D) · β)`` rounds, where C is the maximum number of roots any
vertex serves (the paper's path-recovery statement); the cluster levels of
:mod:`repro.core.high_levels` charge it in their level schedule, with C the
Claim-6 bound Õ(n^{1/k}), and meter the words of the vertices it returns.
"""

from __future__ import annotations

import math
from typing import Hashable, List

import networkx as nx

from .bounded_bf import ExplorationState
from .hopset import Hopset

NodeId = Hashable
INF = math.inf


def recover_paths(
    graph: nx.Graph, hopset: Hopset, state: ExplorationState
) -> List[NodeId]:
    """Expand every winning hopset edge into its implementing G-path.

    Mutates ``state``: after this call no vertex's provenance rests on a
    hopset edge -- ``gparent`` is a pure graph-edge forest, and intermediate
    path vertices have received estimates when the path gave them a better
    one.  Returns the vertices whose estimate a walk lowered, one entry per
    lowering, in walk order.
    """
    # Each expansion only reads the *final* estimate of the near endpoint,
    # so the edges can be processed independently (matching the protocol,
    # which pipelines all paths at once).
    lowered: List[NodeId] = []
    for v, (owner, other, reversed_) in sorted(
        state.hvia.items(), key=lambda item: repr(item[0])
    ):
        path = hopset.path_of(owner, other)
        walk = list(reversed(path)) if reversed_ else list(path)
        # walk runs near-endpoint -> ... -> v
        near = walk[0]
        base = state.value(near)
        if base == INF:
            continue
        total = base
        for prev, z in zip(walk, walk[1:]):
            total += float(graph[prev][z].get("weight", 1.0))
            if total < state.value(z) - 1e-15:
                state.est[z] = total
                state.gparent[z] = prev
                lowered.append(z)
        # The winner's estimate came from this very edge, so the walk total
        # is never worse than it; pin the graph parent even on exact ties
        # (the near endpoint may have improved since the H-step relaxation).
        if state.gparent.get(v) is None and len(walk) >= 2:
            state.est[v] = min(state.value(v), total)
            state.gparent[v] = walk[-2]
    state.hvia.clear()
    return lowered
