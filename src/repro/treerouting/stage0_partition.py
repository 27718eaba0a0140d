"""Stage 0: establishing the local-tree partition (Section 3.1, opening).

"Initially every vertex y ∈ T only knows that it is in T and its parent
p(y).  We begin by informing each vertex in which local tree T_w it lies.
Every w ∈ U(T) sends a message about itself to the vertices of T_w ...
Note that this message will arrive to every vertex x ∈ U(T) who is a child
of w in the virtual tree T' ... so x will know its (virtual) parent p'(x)."

One :func:`~repro.treerouting.localcomm.local_flood` with the U(T) roots
announcing their own ids.  Every vertex retains 2 words: its local root,
and (for U(T) vertices) the T'-parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..congest.network import Network
from ..errors import InvariantViolation
from ..telemetry.events import phase
from .localcomm import local_flood
from .sampling import TreePartition

NodeId = Hashable


@dataclass
class PartitionInfo:
    """What Stage 0 leaves at the vertices."""

    local_root: Dict[NodeId, NodeId]
    virtual_parent: Dict[NodeId, Optional[NodeId]]


def run_stage0(net: Network, part: TreePartition, *, mem_prefix: str = "tree") -> PartitionInfo:
    """Run the membership flood and return the learned partition."""
    with phase(net, "stage0/membership"):
        value, boundary = local_flood(net, part, root_value=lambda x: x,
                                      emit=lambda v, root_id: root_id)
    local_root: Dict[NodeId, NodeId] = dict(value)
    virtual_parent: Dict[NodeId, Optional[NodeId]] = {part.root: None}
    for x, announced_root in boundary.items():
        virtual_parent[x] = announced_root
    net.store_each(f"{mem_prefix}/local-root", dict.fromkeys(part.tree_parent, 1))
    net.store_each(f"{mem_prefix}/virtual-parent", dict.fromkeys(part.ut, 1))

    # Invariant: matches the simulator-side reference partition.
    reference = part.local_root_reference()
    if local_root != reference:
        raise InvariantViolation("stage 0 learned a wrong local-tree partition")
    return PartitionInfo(local_root=local_root, virtual_parent=virtual_parent)
