"""Stage 2: light edges on the root path (Section 3.2).

1. **Local lists** (Algorithm 2) -- every local tree floods down in
   parallel: a vertex ``u`` holding list ``L(u)`` sends ``L(u)`` to its
   heavy child and ``L(u) ∪ {(u, v)}`` to every other child.  The boundary
   deliveries give every virtual vertex ``x`` its list ``L_0(x)`` of light
   edges on the T-path from ``p'(x)`` to ``x``.
2. **Global lists for U(T)** (Algorithm 3) -- pointer jumping with the pull
   rule ``L_{i+1}(x) = L_i(a_i(x)) ∪ L_i(x)`` (Claim 4), reusing the
   ancestor trail of Stage 1.  Each list has at most ``log2 n`` edges, so
   the broadcast messages are O(log n) words (charged proportionally by the
   simulator).
3. **Push down** -- each ``x ∈ U(T)`` floods its final list into ``T_x``;
   a vertex's full light-edge list is the concatenation of its local root's
   global list and its own local list.

Per-vertex memory: the final O(log n)-word list (it becomes the routing
label) plus the transient local list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

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
Edge = Tuple[NodeId, NodeId]
EdgeList = Tuple[Edge, ...]


@dataclass
class LightInfo:
    """Every vertex's light edges on its root path, root-first."""

    light_edges: Dict[NodeId, EdgeList]


def run_stage2(
    net: Network,
    bfs: BfsTree,
    part: TreePartition,
    info: PartitionInfo,
    sizes: SizeInfo,
    *,
    mem_prefix: str = "tree",
) -> LightInfo:
    heavy = sizes.heavy

    # -- step 1: Algorithm 2 (local lists) -------------------------------------
    def emit_lists(u: NodeId, own: EdgeList) -> Dict[NodeId, EdgeList]:
        return {
            c: own if c == heavy[u] else own + ((u, c),)
            for c in part.tree_forest.children[u]
        }

    with phase(net, "stage2/local"):
        local_lists, boundary = local_flood(net, part, root_value=lambda x: (), emit=emit_lists)
    net.store_each(f"{mem_prefix}/light-local",
                   {v: 2 * len(edges) for v, edges in local_lists.items()})

    # -- step 2: Algorithm 3 (global lists on U(T)) -----------------------------
    init: Dict[NodeId, EdgeList] = {part.root: ()}
    for x, l0 in boundary.items():
        init[x] = l0
    result = pointer_jump(
        net,
        bfs,
        info.virtual_parent,
        init=init,
        pull=lambda x, own, anc, contribs: (anc or ()) + own,
        trail=sizes.trail,
        phase="stage2/alg3",
        mem_key=f"{mem_prefix}/alg3",
    )
    global_lists: Dict[NodeId, EdgeList] = result.values
    if global_lists[part.root] != ():
        raise InvariantViolation("root must have no light edges above it")

    # -- step 3: push the global lists into the local trees ----------------------
    with phase(net, "stage2/push"):
        pushed, _ = local_flood(net, part, root_value=lambda x: global_lists[x],
                                emit=lambda v, edges: edges)
    # pushed[v] is the global list of v's local root; appending the local
    # list yields the light edges of the full z-to-v path.
    light_edges: Dict[NodeId, EdgeList] = {
        v: pushed[v] + local_lists[v] for v in part.tree_parent}
    net.store_each(f"{mem_prefix}/light",
                   {v: 2 * len(edges) for v, edges in light_edges.items()})
    net.free_key(f"{mem_prefix}/light-local")
    return LightInfo(light_edges=light_edges)
