"""S19 stretch attribution: split ``actual - optimal`` exactly.

For a traced query answered at route cost ``actual`` with shortest-path
cost ``optimal``, one Dijkstra from the *target* prices every hop of the
route: hop ``u -> v`` of weight ``w`` makes ``d(u,t) - d(v,t)`` of
shortest-path progress, so its **excess** is ``w - (d(u,t) - d(v,t))``
(0.0 on a shortest path; per-hop excesses telescope to
``actual - optimal``).

Two exact decompositions are then published on the trace:

* ``attribution`` — per hierarchy level.  TZ-style forwarding commits a
  query to exactly one cluster tree, so a single query charges its whole
  excess to the committed level; aggregated over traced queries (as
  ``repro explain`` does) this yields the per-level table of the
  Elkin–Neiman analysis.  The bucket is written in closed form as
  ``actual - optimal`` — not as the float sum of hop excesses — so
  ``sum(attribution.values()) == actual - optimal`` holds *exactly*
  (acceptance criterion, asserted in tests).
* ``phases`` — ascent (parent hops, toward the committed landmark) vs
  descent (heavy/light hops).  Ascent is the float sum of parent-hop
  excesses; descent is the closed-form remainder, so the phase sum is
  exact too.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

import networkx as nx

from ..graphs.paths import Adjacency, GraphLike, dijkstra
from .model import QueryTrace

NodeId = Hashable


def attribute_traces(graph: nx.Graph, traces: Iterable[QueryTrace]) -> None:
    """Attribute every successful trace in place, caching one Dijkstra
    per distinct target."""
    cache: Dict[NodeId, Dict[NodeId, float]] = {}
    adj = Adjacency.of(graph)
    for trace in traces:
        attribute(adj, trace, cache)


def attribute(
    graph: GraphLike,
    trace: QueryTrace,
    dist_cache: Optional[Dict[NodeId, Dict[NodeId, float]]] = None,
) -> None:
    """Fill ``optimal`` / ``stretch`` / per-hop ``excess`` /
    ``attribution`` / ``phases`` on one trace.

    Failed traces get per-hop excesses for whatever prefix was walked but
    no attribution (there is no defined stretch to split).  A target
    unreachable from the source (disconnected graph) is left
    unattributed as well.
    """
    dist = dist_cache.get(trace.target) if dist_cache is not None else None
    if dist is None:
        dist, _parents = dijkstra(graph, [trace.target])
        if dist_cache is not None:
            dist_cache[trace.target] = dist
    for hop in trace.hops:
        du = dist.get(hop.source)
        dv = dist.get(hop.dest)
        if du is None or dv is None:
            hop.excess = None
        else:
            hop.excess = hop.weight - (du - dv)
    if not trace.ok:
        return
    optimal = 0.0 if trace.source == trace.target else dist.get(trace.source)
    if optimal is None:
        return
    trace.optimal = optimal
    trace.stretch = trace.length / optimal if optimal > 0 else 1.0
    excess = trace.length - optimal
    # Closed-form buckets (see module docstring): exact by construction.
    trace.attribution = {str(trace.level): excess}
    ascent = sum(h.excess for h in trace.hops
                 if h.kind == "parent" and h.excess is not None)
    trace.phases = {"ascent": ascent, "descent": excess - ascent}

