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

Rounds: ``Õ((|H| · C + D) · β)`` where C is the maximum number of roots any
vertex serves (the paper's path-recovery statement); the caller supplies C
since it knows the surrounding computation (for cluster trees it is the
Claim-6 bound Õ(n^{1/k})).
"""

from __future__ import annotations

import math
from typing import Hashable

from ..congest.network import Network
from .bounded_bf import ExplorationState
from .hopset import Hopset

NodeId = Hashable
INF = math.inf


def recover_paths(
    net: Network,
    hopset: Hopset,
    state: ExplorationState,
    *,
    roots_per_vertex: int = 1,
    beta: int = 1,
    mem_prefix: str = "bf",
    charge: bool = True,
) -> ExplorationState:
    """Expand every winning hopset edge into its implementing G-path.

    Mutates (and returns) ``state``: after this call no vertex's provenance
    rests on a hopset edge -- ``gparent`` is a pure graph-edge forest, and
    intermediate path vertices have received estimates when the path gave
    them a better one.
    """
    # Each expansion only reads the *final* estimate of the near endpoint,
    # so the edges can be processed independently (matching the protocol,
    # which pipelines all paths at once).
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
            total += net.weight(prev, z)
            if total < state.value(z) - 1e-15:
                state.est[z] = total
                state.gparent[z] = prev
                net.mem(z).add(f"{mem_prefix}/recovered", 2)
        # The winner's estimate came from this very edge, so the walk total
        # is never worse than it; pin the graph parent even on exact ties
        # (the near endpoint may have improved since the H-step relaxation).
        if state.gparent.get(v) is None and len(walk) >= 2:
            state.est[v] = min(state.value(v), total)
            state.gparent[v] = walk[-2]
    state.hvia.clear()

    if charge:
        d_bound = net.hop_diameter_upper_bound()
        rounds = (hopset.size * max(1, roots_per_vertex) + d_bound) * max(1, beta)
        net.charge_rounds(rounds)
    return state
