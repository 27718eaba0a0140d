"""The pointer-jumping engine behind Algorithms 1, 3 and 6.

All three global stages of the tree routing share one skeleton.  Every
virtual vertex ``x ∈ U(T)`` holds a value ``val_i(x)`` and a pointer
``a_i(x)`` to its ``2^i``-ancestor in the virtual tree T' (``a_0(x) =
p'(x)``, the T'-parent learned in Stage 0).  Each of ``ceil(log2 n)``
iterations broadcasts every ``(x, a_i(x), val_i(x))`` over the BFS tree of G
(Lemma 1) and then each ``x`` updates

* ``a_{i+1}(x) = a_i(a_i(x))`` -- read off the broadcast entry of its own
  current ancestor, and
* ``val_{i+1}(x) = pull(x, val_i(x), val_i(a_i(x)), {val_i(w) : a_i(w)=x})``
  -- the stage-specific rule:

  - Algorithm 1 (subtree sizes):  own + sum of contributors;
  - Algorithm 3 (light edges):    ancestor's list ++ own list;
  - Algorithm 6 (DFS shifts):     own + ancestor's value.

Memory per virtual vertex: the ancestor trail ``{a_i(x)}`` (``O(log n)``
words, kept for reuse by later stages -- "Each vertex x ∈ U(T) stores
{a_i(x)} for future use"), the current value, and an O(1) accumulator while
scanning the broadcast stream.  A vertex never stores the stream: it keeps
only its ancestor's entry and a running fold of its contributors, which is
what the engine's accounting charges.

Rounds: ``iterations`` Lemma-1 broadcasts of ``|U(T)|`` messages each, i.e.
``Õ(q n + D)`` in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from ..congest.bfs import BfsTree
from ..congest.broadcast import broadcast_all
from ..congest.network import Network
from ..errors import InvariantViolation
from ..telemetry.events import phase as open_phase
from ..wordsize import words_of

NodeId = Hashable

# pull(x, own_value, ancestor_value_or_None, contributor_values) -> new value
PullRule = Callable[[NodeId, Any, Optional[Any], Sequence[Any]], Any]


@dataclass
class PointerJumpResult:
    """Final values and the ancestor trail (reusable by later stages)."""

    values: Dict[NodeId, Any]
    trail: Dict[NodeId, List[Optional[NodeId]]]
    iterations: int


def required_iterations(member_count: int) -> int:
    """Enough doublings to cover any root path of T' (depth < |U(T)|)."""
    return max(1, math.ceil(math.log2(max(2, member_count))) + 1)


def pointer_jump(
    net: Network,
    bfs: BfsTree,
    virtual_parent: Mapping[NodeId, Optional[NodeId]],
    init: Mapping[NodeId, Any],
    pull: PullRule,
    *,
    trail: Optional[Dict[NodeId, List[Optional[NodeId]]]] = None,
    phase: str = "pointer-jump",
    mem_key: str = "pj",
) -> PointerJumpResult:
    """Run the doubling loop over the virtual tree.

    ``virtual_parent`` maps every member to its T'-parent (root -> None).
    ``init`` supplies ``val_0``.  When ``trail`` (a previous run's ancestor
    trail) is given, the ancestors are *not* recomputed -- iteration ``i``
    reads ``trail[x][i]`` exactly as Algorithms 3 and 6 reuse the pointers
    Algorithm 1 stored.  Iteration ``i``'s broadcast is the phase
    ``{phase}/broadcast-{i}``.
    """
    members = sorted(virtual_parent, key=repr)
    member_set = set(members)
    for x, p in virtual_parent.items():
        if p is not None and p not in member_set:
            raise InvariantViolation(f"T'-parent {p!r} of {x!r} is not a member")
    iterations = (
        len(next(iter(trail.values()))) if trail else required_iterations(len(members))
    )

    value: Dict[NodeId, Any] = {x: init[x] for x in members}
    reuse = trail is not None
    if reuse:
        anc_trail = trail
    else:
        anc_trail = {x: [] for x in members}
        anc: Dict[NodeId, Optional[NodeId]] = dict(virtual_parent)

    for i in range(iterations):
        if reuse:
            current_anc = {x: anc_trail[x][i] for x in members}
        else:
            current_anc = dict(anc)
            for x in members:
                anc_trail[x].append(current_anc[x])
            net.add_each(f"{mem_key}/trail", members, 1)
        items = [(x, (x, current_anc[x], value[x])) for x in members]
        with open_phase(net, f"{phase}/broadcast-{i}"):
            stream = broadcast_all(net, bfs, items)

        # Index the stream the way a vertex would read it: each x keeps only
        # its ancestor's entry and folds its contributors on the fly.
        by_id: Dict[NodeId, Any] = {}
        contributors: Dict[NodeId, List[Any]] = {x: [] for x in members}
        for (w, a_w, val_w) in stream:
            by_id[w] = (a_w, val_w)
            if a_w is not None and a_w in contributors:
                contributors[a_w].append(val_w)

        new_value: Dict[NodeId, Any] = {}
        for x in members:
            a_x = current_anc[x]
            anc_val = by_id[a_x][1] if a_x is not None else None
            new_value[x] = pull(x, value[x], anc_val, contributors[x])
        net.store_each(f"{mem_key}/value",
                       {x: words_of(val) for x, val in new_value.items()})
        value = new_value

        if not reuse:
            for x in members:
                a_x = current_anc[x]
                anc[x] = by_id[a_x][0] if a_x is not None else None

    net.free_key(f"{mem_key}/value")
    return PointerJumpResult(values=value, trail=anc_trail, iterations=iterations)
