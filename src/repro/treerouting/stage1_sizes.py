"""Stage 1: subtree sizes and heavy children (Section 3.1).

Four sub-steps, exactly as in the paper:

1. **Local subtree sizes** -- a convergecast inside every local tree in
   parallel; afterwards each ``x ∈ U(T)`` knows ``|T_x|``.
2. **Global subtree sizes for U(T)** -- Algorithm 1: pointer jumping with
   the pull rule ``s_{i+1}(x) = s_i(x) + Σ_{w : a_i(w)=x} s_i(w)``
   (Claim 3 proves ``s_x`` ends up the size of the T-subtree of ``x``).
   The ancestor trail ``{a_i(x)}`` is stored for reuse by Stages 2-3.
3. **Global sizes for everyone** -- each ``x ∈ U(T)`` reports ``s_x`` to
   its T-parent (one round); a second local convergecast then yields
   ``s_y`` (the T-subtree size) for every vertex ``y``.
4. **Heavy children** -- every vertex reports ``s_y`` to its T-parent,
   which keeps a running (size, id) maximum: O(1) memory, one round.

Per-vertex memory: O(1) words for sizes/accumulators/heavy child, plus the
O(log n)-word ancestor trail at U(T) vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from ..congest.bfs import BfsTree
from ..congest.network import Network
from ..congest.primitives import convergecast_up
from ..errors import InvariantViolation
from ..telemetry.events import phase
from .localcomm import report_to_parents
from .pointer_jumping import pointer_jump
from .sampling import TreePartition
from .stage0_partition import PartitionInfo

NodeId = Hashable


@dataclass
class SizeInfo:
    """What Stage 1 leaves at the vertices."""

    sizes: Dict[NodeId, int]  # s_y: T-subtree size, every vertex
    heavy: Dict[NodeId, Optional[NodeId]]  # heavy child (None at leaves)
    trail: Dict[NodeId, List[Optional[NodeId]]]  # {a_i(x)} for x in U(T)


def run_stage1(
    net: Network,
    bfs: BfsTree,
    part: TreePartition,
    info: PartitionInfo,
    *,
    mem_prefix: str = "tree",
) -> SizeInfo:
    # -- step 1: local subtree sizes ------------------------------------------
    with phase(net, "stage1/local-sizes"):
        local_size = convergecast_up(net, part.local_forest, leaf_value=lambda v: 1,
                                     combine=lambda v, child_sizes: 1 + sum(child_sizes))
    net.store_each(f"{mem_prefix}/s", dict.fromkeys(part.tree_parent, 1))

    # -- step 2: Algorithm 1 (global sizes on U(T)) ----------------------------
    result = pointer_jump(
        net,
        bfs,
        info.virtual_parent,
        init={x: local_size[x] for x in part.ut},
        pull=lambda x, own, anc, contribs: own + sum(contribs),
        phase="stage1/alg1",
        mem_key=f"{mem_prefix}/alg1",
    )
    s_virtual: Dict[NodeId, int] = result.values
    if s_virtual[part.root] != part.n:
        raise InvariantViolation(
            f"Algorithm 1 gave root size {s_virtual[part.root]}, expected {part.n}"
        )

    # -- step 3: push the corrected sizes into the local trees ------------------
    with phase(net, "stage1/push"):
        reported = report_to_parents(net, part, payload_of=lambda x: s_virtual[x],
                                     senders=[x for x in part.ut if x != part.root])
    extra: Dict[NodeId, int] = {p: sum(payloads.values()) for p, payloads in reported.items()}
    net.store_each(f"{mem_prefix}/s-extra", dict.fromkeys(extra, 1))

    with phase(net, "stage1/global-sizes"):
        sizes = convergecast_up(
            net,
            part.local_forest,
            leaf_value=lambda v: 1 + extra.get(v, 0),
            combine=lambda v, child_sizes: 1 + extra.get(v, 0) + sum(child_sizes),
        )
    for x in part.ut:
        if sizes[x] != s_virtual[x]:
            raise InvariantViolation(
                f"local re-aggregation disagrees with Algorithm 1 at {x!r}"
            )
    net.free_key(f"{mem_prefix}/s-extra")

    # -- step 4: heavy children --------------------------------------------------
    with phase(net, "stage1/heavy"):
        reported = report_to_parents(net, part, payload_of=lambda v: sizes[v])
    heavy: Dict[NodeId, Optional[NodeId]] = {v: None for v in part.tree_parent}
    for p, payloads in reported.items():
        # Running (size, repr) maximum: the parent folds its children's
        # reports without retaining them -- O(1) words.
        best: Optional[NodeId] = None
        best_key = None
        for child, size in payloads.items():
            key = (size, repr(child))
            if best_key is None or key > best_key:
                best, best_key = child, key
        heavy[p] = best
    net.store_each(f"{mem_prefix}/heavy", dict.fromkeys(reported, 1))

    return SizeInfo(sizes=sizes, heavy=heavy, trail=result.trail)
