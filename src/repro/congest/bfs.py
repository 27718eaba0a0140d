"""Distributed BFS-tree construction.

Every global communication step in the paper (Lemma 1 broadcasts, the
pointer-jumping stages of Section 3, the hopset-edge exchanges of Lemma 2)
runs over a BFS spanning tree of the *underlying unweighted* network, whose
depth is at most the hop-diameter ``D``.

:func:`build_bfs_tree` performs a literal round-by-round flood from the root:
in round ``t`` every vertex at hop distance ``t`` receives the wave and
adopts the first sender as its parent (ties broken by port order, making the
construction deterministic for a fixed graph).  It takes exactly
``depth`` rounds and each vertex retains its parent id and depth:
O(1) words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import InvariantViolation
from ..telemetry import events as _tele
from .network import Network

NodeId = Hashable


@dataclass
class BfsTree:
    """A rooted BFS spanning tree of the network.

    ``children`` is derived information kept by the *simulator* for
    orchestration; a vertex itself only stores ``parent`` and ``depth``
    (charged to its meter by :func:`build_bfs_tree`).
    """

    root: NodeId
    parent: Dict[NodeId, Optional[NodeId]]
    depth: Dict[NodeId, int]
    children: Dict[NodeId, List[NodeId]] = field(default_factory=dict)

    @property
    def height(self) -> int:
        """Depth of the deepest vertex (<= hop-diameter D)."""
        return max(self.depth.values())


def build_bfs_tree(net: Network, root: Optional[NodeId] = None) -> BfsTree:
    """Flood a BFS wave from ``root`` and return the resulting tree.

    Runs ``height`` simulated rounds; every vertex stores O(1) words
    (parent and depth) under the ``bfs/`` memory prefix.
    """
    if root is None:
        root = min(net.nodes(), key=repr)
    with _tele.span("congest/bfs", n=net.n):
        net.begin_phase("bfs-tree")
        parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        depth: Dict[NodeId, int] = {root: 0}
        net.mem(root).store("bfs/parent", 2)
        frontier = [root]
        while frontier:
            for u in frontier:
                # Pass the engine's own cached port list when the filter
                # removes nothing: the batched engines recognise it by
                # identity and take the full-fanout fast lane.
                ports = net.ports(u)
                dsts = [w for w in ports if w not in parent]
                net.send_many(
                    u, ports if len(dsts) == len(ports) else dsts, "bfs"
                )
            # Flat delivery: pick each vertex's first sender in repr order
            # without building per-destination inboxes.  ``best`` keeps
            # first-arrival insertion order, matching the inbox order the
            # seed engine iterated.
            best: Dict[NodeId, Tuple[str, NodeId]] = {}
            for msg in net.deliver_batch():
                v = msg.dst
                if v in parent:
                    continue
                key = repr(msg.src)
                cur = best.get(v)
                if cur is None or key < cur[0]:
                    best[v] = (key, msg.src)
            next_frontier: List[NodeId] = []
            for v, (_, chosen) in best.items():
                parent[v] = chosen
                depth[v] = depth[chosen] + 1
                net.mem(v).store("bfs/parent", 2)
                next_frontier.append(v)
            frontier = next_frontier
        if len(parent) != net.n:
            raise InvariantViolation("BFS flood did not reach every vertex")
        children: Dict[NodeId, List[NodeId]] = {v: [] for v in net.nodes()}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        for v in children:
            children[v].sort(key=repr)
        net.end_phase()
    return BfsTree(root=root, parent=parent, depth=depth, children=children)
