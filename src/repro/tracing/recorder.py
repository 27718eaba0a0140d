"""S19 trace recorder: replay one served query into a :class:`QueryTrace`.

Routing is deterministic per engine, so a sampled query is *replayed* at
``Tracer.finalize``, after the serving loop answered it, through the
engine's own source rule (``ServeEngine._decide``, which names the
committed candidate's index) and hop loop (``_forward_graph`` /
``_forward_tree``): the trace takes the served path and failure text by
construction.  One pass over the walked path then labels each
:class:`~repro.tracing.model.HopSpan` (kind and weight, from the arrays the
walk stepped through), and the candidate's
:class:`~repro.serve.compile.DecisionProvenance` names level, tree and root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Sequence, Tuple

from ..errors import RoutingFailure
from ..serve.compile import CompiledTreeScheme, PackedLabel, PackedTree
from ..serve.engine import _forward_graph, _forward_tree
from .model import HopSpan, QueryTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.engine import ServeEngine

NodeId = Hashable


def replay_query(
    engine: "ServeEngine",
    source: NodeId,
    target: NodeId,
    *,
    trace_id: str = "",
    via: str = "head",
) -> QueryTrace:
    """Replay ``source -> target`` on ``engine`` into a trace.

    A ``RoutingFailure`` becomes a failed trace with the engine's message,
    its partial path as hops and their weight as a forensic ``length`` (the
    served result says 0.0); ``KeyError`` propagates as from
    ``ServeEngine.route``, so no trace exists of a query the engine refused.
    """
    compiled = engine.compiled
    trace = QueryTrace(trace_id, source, target, via=via, mode=engine.mode)
    is_tree = isinstance(compiled, CompiledTreeScheme)
    if is_tree:
        tree = compiled.tree
        label = compiled.labels[target]  # parity: scheme.labels[target]
        index, prov = 0, compiled.provenance
        trace.bunch_levels = (0,)
    else:
        if source == target:
            trace.ok = True
            return trace
        trace.bunch_levels = compiled.bunch_levels.get(target, ())
        try:
            index, (tree, label) = engine._decide(compiled, source, target)
        except RoutingFailure as exc:
            trace.error = str(exc)
            return trace
        prov = compiled.provenance[target][index]
    trace.candidate_index, trace.level, trace.tree_id = \
        index, prov.level, prov.tree_id
    trace.root, trace.dist_to_root = prov.root, prov.dist_to_root
    try:
        if is_tree:
            path, _ = _forward_tree(tree, label, source, budget=engine.budget)
        else:
            path, _ = _forward_graph(compiled, tree, label, source, target,
                                     budget=engine.budget)
        trace.ok = True
    except RoutingFailure as exc:
        # A leaf / root failure carries no partial path (as in the
        # reference router); its trace then has no hops.
        path = exc.path or [source]
        trace.error = str(exc)
    trace.hops, trace.length = _spans(tree, label, path)
    return trace


def _spans(
    tree: PackedTree,
    label: PackedLabel,
    path: Sequence[NodeId],
) -> Tuple[List[HopSpan], float]:
    """One span per hop of a walked ``path``, and their running length
    (a weightless tree hop, not a graph edge, costs 1.0 as it does in
    ``_forward_tree``)."""
    (enter, exit_, parent, _parent_id, parent_w,
     heavy, _heavy_id, heavy_w, local, _tree_id) = tree.hot
    light, dest_enter = label.light, label.enter
    hops: List[HopSpan] = []
    length = 0.0
    li = local.get(path[0])
    for at_id, nid in zip(path, path[1:]):
        if enter[li] <= dest_enter <= exit_[li]:
            hop = light.get(li)
            if hop is None:
                kind, nli, w = "heavy", heavy[li], heavy_w[li]
            else:
                kind, (nli, _, w) = "light", hop
        else:
            kind, nli, w = "parent", parent[li], parent_w[li]
        w = 1.0 if w is None else w
        hops.append(HopSpan(len(hops), at_id, nid, kind, w))
        length += w
        li = nli
    return hops, length
