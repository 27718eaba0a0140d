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
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import InvariantViolation
from ..telemetry.events import phase
from .network import Network

NodeId = Hashable


@dataclass(frozen=True)
class BfsTree:
    """A rooted BFS spanning tree of the network.

    ``children`` is derived information kept by the *simulator* for
    orchestration; a vertex itself only stores ``parent`` and ``depth``
    (charged to its meter by :func:`build_bfs_tree`).  Frozen because
    :attr:`height` is cached on first read.
    """

    root: NodeId
    parent: Dict[NodeId, Optional[NodeId]]
    depth: Dict[NodeId, int]
    children: Dict[NodeId, List[NodeId]] = field(default_factory=dict)

    @cached_property
    def height(self) -> int:
        """Depth of the deepest vertex (<= hop-diameter D); computed on the
        first read, since every Lemma-1 broadcast over the tree reads it."""
        return max(self.depth.values())


def build_bfs_tree(net: Network, root: Optional[NodeId] = None) -> BfsTree:
    """Flood a BFS wave from ``root`` and return the resulting tree.

    Runs ``height`` simulated rounds; every vertex stores O(1) words
    (parent and depth) under the ``bfs/`` memory prefix.
    """
    if root is None:
        root = min(net.nodes(), key=repr)
    with phase(net, "congest/bfs"):
        parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        depth: Dict[NodeId, int] = {root: 0}
        net.store_each("bfs/parent", {root: 2})
        frontier = [root]
        while frontier:
            # The whole frontier is one round: every frontier vertex sends
            # the wave to each port not yet reached.
            net.send_each([(u, w, None) for u in frontier
                           for w in net.ports(u) if w not in parent])
            # Flat delivery: pick each vertex's first sender in repr order
            # without building per-destination inboxes.  ``best`` keeps
            # first-arrival insertion order, matching the inbox order the
            # seed engine iterated.
            best: Dict[NodeId, Tuple[str, NodeId]] = {}
            for src, v, _ in net.deliver_batch():
                if v in parent:
                    continue
                key = repr(src)
                cur = best.get(v)
                if cur is None or key < cur[0]:
                    best[v] = (key, src)
            next_frontier: List[NodeId] = []
            for v, (_, chosen) in best.items():
                parent[v] = chosen
                depth[v] = depth[chosen] + 1
                next_frontier.append(v)
            net.store_each("bfs/parent", dict.fromkeys(next_frontier, 2))
            frontier = next_frontier
        if len(parent) != net.n:
            raise InvariantViolation("BFS flood did not reach every vertex")
        children: Dict[NodeId, List[NodeId]] = {v: [] for v in net.nodes()}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        for v in children:
            children[v].sort(key=repr)
    return BfsTree(root=root, parent=parent, depth=depth, children=children)
