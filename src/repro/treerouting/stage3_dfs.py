"""Stage 3: DFS entry/exit times (Appendix A).

1. **Range partition** (Algorithm 5) -- for every vertex ``y`` with children
   ``y_1 < ... < y_r`` (port order), compute at each child the prefix sum
   ``S(y_j) = Σ_{h<=j} s_{y_h}`` of the *global* subtree sizes, using the
   binary-doubling relay through the parent: in phase ``i`` the child at
   index ``(2t-1)·2^i`` sends its partial sum up, and the parent forwards it
   (next round, unstored) to the children at indices
   ``(2t-1)·2^i + 1 .. 2t·2^i``, which add it (Claim 5).  Runs for all
   parents in parallel: ``2·ceil(log2 max_degree)`` simulated rounds.
   The parent only *relays*: the values it forwards are held for a single
   round in transit buffers, which -- like the paper -- we do not charge as
   algorithm memory.

2. **Local DFS** (Algorithm 4) -- every local tree floods down in parallel.
   A vertex with DFS start ``a`` sends just ``a`` (O(1) words!) to all its
   children; child ``c`` derives its own start ``a + S(c) - s_c + 1``
   locally.  The boundary delivery gives every virtual vertex its start
   within its parent's tree, i.e. its shift ``q_x = a + S(x) - s_x``.

3. **Global shifts** (Algorithm 6) -- pointer jumping with the pull rule
   ``q_{i+1}(x) = q_i(x) + q_i(a_i(x))``, reusing the Stage-1 trail; the
   result ``σ(x)`` is the sum of shifts over all T'-ancestors of ``x``.

4. **Push down** -- each ``x`` floods ``σ(x)`` into ``T_x``; every vertex's
   global DFS interval is ``[local_enter + σ, local_enter + σ + s_v - 1]``.

Per-vertex memory: O(1) words (prefix sum, enter, shift).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from ..congest.bfs import BfsTree
from ..congest.network import Network
from ..errors import InvariantViolation
from ..telemetry.events import phase
from .localcomm import local_flood
from .pointer_jumping import pointer_jump
from .sampling import TreePartition
from .stage0_partition import PartitionInfo
from .stage1_sizes import SizeInfo

NodeId = Hashable


@dataclass
class DfsInfo:
    """Every vertex's global DFS interval."""

    intervals: Dict[NodeId, Tuple[int, int]]


def _range_partition(
    net: Network,
    part: TreePartition,
    sizes: Dict[NodeId, int],
    mem_prefix: str = "tree",
) -> Dict[NodeId, int]:
    """Algorithm 5: per-child inclusive prefix sums of subtree sizes."""
    children = part.tree_forest.children
    index_of: Dict[NodeId, int] = {}
    kids_of: Dict[NodeId, List[NodeId]] = {}
    max_r = 0
    for y, kids in children.items():
        if not kids:
            continue
        kids_of[y] = kids
        max_r = max(max_r, len(kids))
        for j, c in enumerate(kids, start=1):
            index_of[c] = j
    prefix: Dict[NodeId, int] = {c: sizes[c] for c in index_of}
    net.store_each(f"{mem_prefix}/prefix", dict.fromkeys(index_of, 1))

    phases = max(0, math.ceil(math.log2(max_r))) if max_r > 1 else 0
    for i in range(phases):
        step = 1 << i
        # Round A: designated children send their partial sums to the parent.
        in_flight: Dict[NodeId, List[Tuple[NodeId, int]]] = defaultdict(list)
        up: List[Tuple[NodeId, NodeId, int]] = []
        for y, kids in kids_of.items():
            r = len(kids)
            t = 1
            while (2 * t - 1) * step <= r:
                sender = kids[(2 * t - 1) * step - 1]
                lo = (2 * t - 1) * step + 1
                hi = min(2 * t * step, r)
                if lo <= hi:
                    up.append((sender, y, prefix[sender]))
                    in_flight[y].append((sender, prefix[sender]))
                t += 1
        if not up:
            continue
        net.send_each(up)
        net.deliver_batch()
        # Round B: the parent forwards each value to its target children.
        down: List[Tuple[NodeId, NodeId, int]] = []
        for y, transfers in in_flight.items():
            kids = kids_of[y]
            r = len(kids)
            for sender, value in transfers:
                j_s = index_of[sender]
                t = (j_s // step + 1) // 2
                lo = (2 * t - 1) * step + 1
                hi = min(2 * t * step, r)
                down.extend([(y, kids[j - 1], value) for j in range(lo, hi + 1)])
        net.send_each(down)
        inboxes = net.tick()
        for c, msgs in inboxes.items():
            if len(msgs) != 1:
                raise InvariantViolation(
                    f"child {c!r} received {len(msgs)} Algorithm-5 messages"
                )
            prefix[c] += msgs[0][2]
    return prefix


def run_stage3(
    net: Network,
    bfs: BfsTree,
    part: TreePartition,
    info: PartitionInfo,
    size_info: SizeInfo,
    *,
    mem_prefix: str = "tree",
) -> DfsInfo:
    sizes = size_info.sizes
    with phase(net, "stage3/alg5"):
        prefix = _range_partition(net, part, sizes, mem_prefix)

    # Sanity: prefix sums match direct computation (simulator-side check).
    for y, kids in part.tree_forest.children.items():
        running = 0
        for c in kids:
            running += sizes[c]
            if prefix[c] != running:
                raise InvariantViolation(f"Algorithm 5 wrong at child {c!r}")

    # -- Algorithm 4: local DFS, O(1)-word messages ------------------------------
    with phase(net, "stage3/local-dfs"):
        local_enter, boundary = local_flood(
            net,
            part,
            root_value=lambda x: 1,
            emit=lambda u, enter: enter,
            derive=lambda c, parent_enter: parent_enter + prefix[c] - sizes[c] + 1,
        )
    net.store_each(f"{mem_prefix}/enter-local", dict.fromkeys(part.tree_parent, 1))

    # -- shifts q_x -----------------------------------------------------------------
    shifts: Dict[NodeId, int] = {part.root: 0}
    for x, parent_enter in boundary.items():
        shifts[x] = parent_enter + prefix[x] - sizes[x]

    # -- Algorithm 6: global shifts ---------------------------------------------------
    result = pointer_jump(
        net,
        bfs,
        info.virtual_parent,
        init=shifts,
        pull=lambda x, own, anc, contribs: own + (anc or 0),
        trail=size_info.trail,
        phase="stage3/alg6",
        mem_key=f"{mem_prefix}/alg6",
    )
    sigma: Dict[NodeId, int] = result.values

    # -- push the shifts down -----------------------------------------------------------
    with phase(net, "stage3/push"):
        pushed, _ = local_flood(net, part, root_value=lambda x: sigma[x],
                                emit=lambda v, shift: shift)
    intervals: Dict[NodeId, Tuple[int, int]] = {}
    for v in part.tree_parent:
        enter = local_enter[v] + pushed[v]
        intervals[v] = (enter, enter + sizes[v] - 1)
    net.store_each(f"{mem_prefix}/interval", dict.fromkeys(intervals, 2))
    net.free_key(f"{mem_prefix}/enter-local")
    net.free_key(f"{mem_prefix}/prefix")

    root_interval = intervals[part.root]
    if root_interval != (1, part.n):
        raise InvariantViolation(
            f"root interval {root_interval} != (1, {part.n})"
        )
    return DfsInfo(intervals=intervals)
