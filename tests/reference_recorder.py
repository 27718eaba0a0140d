"""The executable specification of ``repro.tracing.recorder.replay_query``.

The hand-kept trace recorder, verbatim: a second copy of the serving
engine's candidate scan and of both hop loops that records a
:class:`~repro.tracing.model.HopSpan` per hop as it walks, with the
failure messages and the hop budget written out again.  The production
recorder replays through the engine's own decision and walks instead, then
labels the walked path; ``tests/test_trace_replay.py`` holds its
``to_dict()`` output to this module's on every table family the serving
suite builds, failing queries and ``KeyError`` included.  Do not optimise
this file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Tuple

from repro.errors import RoutingFailure
from repro.serve.compile import (
    NO_VERTEX,
    CompiledGraphScheme,
    CompiledTreeScheme,
    PackedLabel,
    PackedTree,
    _tree_root,
)
from repro.tracing.model import HopSpan, QueryTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.engine import ServeEngine

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

    ``RoutingFailure`` becomes a failed trace carrying the reference
    router's exact message; ``KeyError`` (unknown source/target) propagates
    exactly like ``ServeEngine.route`` so the tracer can never observe a
    query the engine itself could not.
    """
    compiled = engine.compiled
    if isinstance(compiled, CompiledTreeScheme):
        return _replay_tree(engine, compiled, source, target, trace_id, via)
    return _replay_graph(engine, compiled, source, target, trace_id, via)


# ---------------------------------------------------------------------------
# Graph schemes
# ---------------------------------------------------------------------------

def _replay_graph(
    engine: "ServeEngine",
    compiled: CompiledGraphScheme,
    source: NodeId,
    target: NodeId,
    trace_id: str,
    via: str,
) -> QueryTrace:
    trace = QueryTrace(trace_id, source, target, via=via)
    if source == target:
        trace.ok = True
        return trace
    trace.bunch_levels = tuple(
        cand[2] for cand in compiled.decisions.get(target, ()))
    try:
        idx, tree, label = _decide_indexed(engine, compiled, source, target)
    except RoutingFailure as exc:
        trace.error = str(exc)
        return trace
    _, _, level, dist_to_root = compiled.decisions[target][idx]
    trace.candidate_index = idx
    trace.level = level
    trace.tree_id = tree.tree_id
    trace.root = _tree_root(tree)
    trace.dist_to_root = dist_to_root
    _walk_graph(trace, compiled, tree, label, source, target, engine.budget)
    return trace


def _decide_indexed(
    engine: "ServeEngine",
    compiled: CompiledGraphScheme,
    source: NodeId,
    target: NodeId,
) -> Tuple[int, PackedTree, PackedLabel]:
    """``ServeEngine._decide`` with the committed candidate index kept."""
    cands = compiled.decisions.get(target)
    if cands is None:
        raise KeyError(target)  # parity: scheme.labels[target]
    if source not in compiled.table_ids:
        raise KeyError(source)  # parity: scheme.tables[source]
    for idx, cand in enumerate(cands):
        if source in cand[0]:
            return idx, cand[1][0], cand[1][1]
    raise RoutingFailure(
        f"no common cluster tree between {source!r} and {target!r} "
        "(top-level cluster should always be shared)"
    )


def _walk_graph(
    trace: QueryTrace,
    compiled: CompiledGraphScheme,
    tree: PackedTree,
    label: PackedLabel,
    source: NodeId,
    target: NodeId,
    budget: int,
) -> None:
    """The ``_forward_graph`` hop loop, recording one span per hop.

    On failure the trace keeps the partial hop list and the accumulated
    length walked so far (the served ``ServeResult`` reports length 0.0
    for failures; the trace keeps the forensic value instead).
    """
    (enter, exit_, parent, parent_id, parent_w,
     heavy, heavy_id, heavy_w, local, tree_id) = tree.hot
    light = label.light
    dest_enter = label.enter
    hops = trace.hops
    length = 0.0
    at_id = source
    li = local.get(source, NO_VERTEX)
    for _ in range(budget):
        if li == NO_VERTEX:
            if at_id not in compiled.table_ids:
                raise KeyError(at_id)  # parity: scheme.tables[at]
            return _fail(trace, length,
                         f"vertex {at_id!r} has no table for tree "
                         f"{tree_id!r}")
        e = enter[li]
        if e == dest_enter:
            if at_id != target:
                return _fail(trace, length,
                             f"tree routing terminated at {at_id!r}, "
                             f"not {target!r}")
            trace.ok = True
            trace.length = length
            return
        if e <= dest_enter <= exit_[li]:
            hop = light.get(li)
            if hop is None:
                nid = heavy_id[li]
                if nid is None:
                    return _fail(trace, length,
                                 f"vertex {at_id!r} is a leaf yet the "
                                 f"target (enter={dest_enter}) is strictly "
                                 "inside its interval")
                nli, w, kind = heavy[li], heavy_w[li], "heavy"
            else:
                nli, nid, w = hop
                kind = "light"
        else:
            nid = parent_id[li]
            if nid is None:
                return _fail(trace, length,
                             f"vertex {at_id!r} is the root yet the target "
                             f"(enter={dest_enter}) is outside its interval")
            nli, w, kind = parent[li], parent_w[li], "parent"
        if w is None:
            return _fail(trace, length,
                         f"({at_id!r}, {nid!r}) is not an edge")
        hops.append(HopSpan(len(hops), at_id, nid, kind, w))
        length += w
        li, at_id = nli, nid
    _fail(trace, length, f"exceeded hop budget {budget}")


# ---------------------------------------------------------------------------
# Tree schemes
# ---------------------------------------------------------------------------

def _replay_tree(
    engine: "ServeEngine",
    compiled: CompiledTreeScheme,
    source: NodeId,
    target: NodeId,
    trace_id: str,
    via: str,
) -> QueryTrace:
    trace = QueryTrace(trace_id, source, target, via=via)
    trace.level = 0
    trace.tree_id = compiled.tree.tree_id
    trace.root = compiled.root
    trace.dist_to_root = 0.0
    trace.candidate_index = 0
    trace.bunch_levels = (0,)
    label = compiled.labels[target]  # parity: scheme.labels[target]
    _walk_tree(trace, compiled.tree, label, source, engine.budget)
    return trace


def _walk_tree(
    trace: QueryTrace,
    tree: PackedTree,
    label: PackedLabel,
    source: NodeId,
    budget: int,
) -> None:
    """The ``_forward_tree`` hop loop, recording one span per hop."""
    (enter, exit_, parent, parent_id, parent_w,
     heavy, heavy_id, heavy_w, local, _tree_id) = tree.hot
    light = label.light
    dest_enter = label.enter
    li = local.get(source)
    if li is None:
        raise KeyError(source)  # parity: scheme.tables[source]
    hops = trace.hops
    length = 0.0
    at_id = source
    for _ in range(budget):
        e = enter[li]
        if e == dest_enter:
            trace.ok = True
            trace.length = length
            return
        if e <= dest_enter <= exit_[li]:
            hop = light.get(li)
            if hop is None:
                nid = heavy_id[li]
                if nid is None:
                    return _fail(trace, length,
                                 f"vertex {at_id!r} is a leaf yet the "
                                 f"target (enter={dest_enter}) is strictly "
                                 "inside its interval")
                nli, w, kind = heavy[li], heavy_w[li], "heavy"
            else:
                nli, nid, w = hop
                kind = "light"
        else:
            nid = parent_id[li]
            if nid is None:
                return _fail(trace, length,
                             f"vertex {at_id!r} is the root yet the target "
                             f"(enter={dest_enter}) is outside its interval")
            nli, w, kind = parent[li], parent_w[li], "parent"
        if nli == NO_VERTEX:
            return _fail(trace, length,
                         f"forwarded to {nid!r}, which has no table")
        w = w if w is not None else 1.0
        hops.append(HopSpan(len(hops), at_id, nid, kind, w))
        length += w
        li, at_id = nli, nid
    _fail(trace, length, f"exceeded hop budget {budget}")


def _fail(trace: QueryTrace, length: float, message: str) -> None:
    trace.ok = False
    trace.error = message
    trace.length = length
