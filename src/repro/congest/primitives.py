"""Round-faithful communication primitives on forests embedded in the network.

The tree-routing algorithms of Section 3 repeatedly run two patterns *inside
each local tree, for all local trees in parallel*:

* a **downward wave** from the roots (Stage 0 membership flood, Algorithm 2's
  light-edge lists, Algorithm 4's DFS ranges), which has to deliver across
  local-tree boundaries and therefore lives with the partition:
  :func:`repro.treerouting.localcomm.local_flood`;
* an **upward convergecast** from the leaves (subtree sizes in Stage 1):
  :func:`convergecast_up`, here.

It is simulated literally: one message per tree edge per round, rounds
equal to the forest height, message payloads validated against the network's
word limit.  The forest's edges must be edges of the underlying network
(local trees are subtrees of the routing tree T, which is a subgraph of G).

:class:`Forest` is the shared representation: a parent map over a subset of
the network's vertices.  Depths are *within the forest*, root = depth 0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional

from ..errors import InputError, InvariantViolation
from .network import Network

NodeId = Hashable


@dataclass
class Forest:
    """A rooted forest over a subset of the network's vertices."""

    parent: Dict[NodeId, Optional[NodeId]]
    children: Dict[NodeId, List[NodeId]] = field(default_factory=dict)
    depth: Dict[NodeId, int] = field(default_factory=dict)
    roots: List[NodeId] = field(default_factory=list)

    @classmethod
    def from_parent_map(cls, parent: Mapping[NodeId, Optional[NodeId]]) -> "Forest":
        """Build the derived structure (children lists, depths, roots)."""
        children: Dict[NodeId, List[NodeId]] = {v: [] for v in parent}
        roots: List[NodeId] = []
        for v, p in parent.items():
            if p is None:
                roots.append(v)
            else:
                if p not in parent:
                    raise InputError(f"parent {p!r} of {v!r} is outside the forest")
                children[p].append(v)
        for v in children:
            children[v].sort(key=repr)
        depth: Dict[NodeId, int] = {}
        stack = [(r, 0) for r in roots]
        while stack:
            v, d = stack.pop()
            depth[v] = d
            for c in children[v]:
                stack.append((c, d + 1))
        if len(depth) != len(parent):
            raise InputError("forest contains a cycle or unreachable vertices")
        roots.sort(key=repr)
        return cls(parent=dict(parent), children=children, depth=depth, roots=roots)

    @property
    def height(self) -> int:
        """Depth of the deepest vertex."""
        return max(self.depth.values()) if self.depth else 0

    def vertices(self) -> Iterable[NodeId]:
        return self.parent.keys()

    def leaves(self) -> List[NodeId]:
        return sorted((v for v in self.parent if not self.children[v]), key=repr)

    def subtree_vertices(self, root: NodeId) -> List[NodeId]:
        """All vertices in the subtree rooted at ``root`` (simulator-side)."""
        out: List[NodeId] = []
        stack = [root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return out


# ---------------------------------------------------------------------------
# Upward convergecast
# ---------------------------------------------------------------------------

def convergecast_up(
    net: Network,
    forest: Forest,
    leaf_value: Callable[[NodeId], Any],
    combine: Callable[[NodeId, List[Any]], Any],
    *,
    kind: str = "converge",
    phase: Optional[str] = None,
) -> Dict[NodeId, Any]:
    """Aggregate values from the leaves to the roots of every tree.

    Each leaf starts with ``leaf_value(v)``.  An internal vertex that has
    received one message from every child computes
    ``combine(v, child_values)`` and forwards the result to its parent.
    The combine callback receives child values *in arrival order*; it should
    fold them without retaining the list (O(1)-memory pattern: the simulator
    hands the list for convenience, but handlers must charge their meters for
    whatever they actually keep).

    Returns every vertex's aggregated value.  Rounds simulated: the forest
    height (vertices at height ``h`` fire in round ``h``).
    """
    if phase:
        net.begin_phase(phase)
    value: Dict[NodeId, Any] = {}
    pending: Dict[NodeId, int] = {
        v: len(forest.children[v]) for v in forest.vertices()
    }
    arrived: Dict[NodeId, List[Any]] = defaultdict(list)
    ready = [v for v in forest.vertices() if pending[v] == 0]
    for v in ready:
        value[v] = leaf_value(v)
    while ready:
        for v in ready:
            p = forest.parent[v]
            if p is not None:
                net.send(v, p, kind, value[v])
        inboxes = net.tick()
        next_ready: List[NodeId] = []
        for v, msgs in inboxes.items():
            for m in msgs:
                arrived[v].append(m.payload)
                pending[v] -= 1
            if pending[v] == 0 and v not in value:
                value[v] = combine(v, arrived.pop(v))
                next_ready.append(v)
        ready = next_ready
    if len(value) != len(forest.parent):
        raise InvariantViolation("convergecast did not cover the forest")
    if phase:
        net.end_phase()
    return value
