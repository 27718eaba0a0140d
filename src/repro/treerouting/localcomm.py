"""Local-tree communication with boundary delivery.

The floods of Stages 0, 2 and 3 run *inside every local tree in parallel*,
but with a twist the generic forest primitive cannot express: when a vertex
``u ∈ T_x`` sends to its T-children, the children that belong to ``U(T)``
(roots of their own local trees) also *receive* the payload -- "this message
will arrive to every vertex x ∈ U(T) who is a child of w in the virtual
tree T' (but x will not forward this message to its children)".  Those
boundary deliveries are exactly how a virtual vertex learns its T'-parent
(Stage 0), its list ``L_0(x)`` (Stage 2) and its shift ``q_x`` (Stage 3).

:func:`local_flood` implements this pattern once:

* every ``x ∈ U(T)`` starts with ``root_value(x)``;
* a vertex holding value ``val`` sends ``emit(v, val)`` to its T-children
  (single payload, or per-child dict keyed by child);
* a non-U(T) child adopts the received payload as its value and keeps
  flooding; a U(T) child records it as its *boundary value* and stops.

Rounds: ``max_local_depth`` (+1 for boundary edges), all trees in parallel,
one message per tree edge -- fully simulated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..congest.network import Network
from ..errors import InvariantViolation
from .sampling import TreePartition

NodeId = Hashable


def local_flood(
    net: Network,
    part: TreePartition,
    root_value: Callable[[NodeId], Any],
    emit: Callable[[NodeId, Any], Any],
    *,
    derive: Optional[Callable[[NodeId, Any], Any]] = None,
) -> Tuple[Dict[NodeId, Any], Dict[NodeId, Any]]:
    """Flood all local trees in parallel, delivering across boundaries.

    Returns ``(value, boundary)``: ``value[v]`` is every vertex's in-tree
    value (``root_value`` for U(T) vertices); ``boundary[x]``, for
    ``x ∈ U(T)`` other than the global root, is the payload ``x`` received
    from its T-parent's tree.

    ``derive(v, payload)``, when given, converts the payload a non-U(T)
    vertex received into its own value (Algorithm 4: a child turns its
    parent's DFS start into its own range using its locally-known prefix
    sum).  Boundary payloads are returned raw.
    """
    ut = part.ut
    tree_children = part.tree_forest.children
    value: Dict[NodeId, Any] = {x: root_value(x) for x in ut}
    boundary: Dict[NodeId, Any] = {}

    # All local trees advance in lockstep: one wave of senders per round.
    for senders in part.waves:
        batch: List[Tuple[NodeId, NodeId, Any]] = []
        for v in senders:
            if v not in value:
                raise InvariantViolation(
                    f"vertex {v!r} must send in round "
                    f"{part.local_forest.depth[v] + 1} but has no value"
                )
            out = emit(v, value[v])
            if isinstance(out, dict):
                batch.extend([(v, c, out[c]) for c in tree_children[v]])
            else:
                batch.extend([(v, c, out) for c in tree_children[v]])
        net.send_each(batch)
        for _, c, payload in net.deliver_batch():
            if c in ut:
                if c in boundary:
                    raise InvariantViolation(f"{c!r} received a second local-flood message")
                boundary[c] = payload
            else:
                if c in value:
                    raise InvariantViolation(f"{c!r} received a second local-flood message")
                value[c] = derive(c, payload) if derive is not None else payload

    if len(value) != part.n:
        raise InvariantViolation("local flood did not reach every vertex")
    expected_boundary = len(ut) - 1
    if len(boundary) != expected_boundary:
        raise InvariantViolation(
            f"expected {expected_boundary} boundary deliveries, got {len(boundary)}"
        )
    return value, boundary


def report_to_parents(
    net: Network,
    part: TreePartition,
    payload_of: Callable[[NodeId], Any],
    *,
    senders=None,
) -> Dict[NodeId, Dict[NodeId, Any]]:
    """One round in which ``senders`` (default: all non-root vertices) send
    ``payload_of(v)`` to their T-parent, in the partition's repr order.

    Returns ``received[parent][child] = payload``.  Every message crosses a
    distinct tree edge, so a single round suffices; parents must fold the
    incoming values without retaining them (their meters are charged by the
    calling stage for whatever they actually keep).
    """
    tree_parent = part.tree_parent
    if senders is None:
        senders = [v for v, p in tree_parent.items() if p is not None]
    net.send_each([(v, tree_parent[v], payload_of(v))
                   for v in sorted(senders, key=part.repr_rank.__getitem__)
                   if tree_parent[v] is not None])
    received: Dict[NodeId, Dict[NodeId, Any]] = {}
    for src, dst, payload in net.deliver_batch():
        received.setdefault(dst, {})[src] = payload
    return received
