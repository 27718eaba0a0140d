"""Sampling U and partitioning T into local trees (Section 3, setup).

"We select a set U ⊆ V, such that each vertex is sampled to U independently
with probability q <= 1/sqrt(n). ... The vertices U(T) = (U ∩ V(T)) ∪ {z}
induce a partition of T into subtrees, by removing the edges from each
vertex in U(T) \\ {z} to its parent."

Each local tree ``T_w`` is rooted at ``w ∈ U(T)`` and has depth Õ(1/q) whp.
The *virtual tree* ``T'`` on ``U(T)`` contains the edge ``(x, y)`` when the
T-parent of ``y`` lies in ``T_x``; it is **never** materialized by the
distributed algorithm (that is the paper's memory trick) -- the simulator
derives it only to validate invariants in tests.

Sampling is a purely local coin flip per vertex (zero rounds); the partition
itself is established by the Stage-0 membership flood
(:func:`repro.treerouting.localcomm.local_flood`).
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, List, Mapping, Optional, Set

from ..congest.primitives import Forest
from ..errors import InputError
from ..graphs.trees import tree_root

NodeId = Hashable


def default_sampling_probability(n: int, s: int = 1) -> float:
    """``q = 1/sqrt(s n)``: single tree (s=1) or s parallel trees
    (Section 3, "Choice of parameter q")."""
    if n < 1 or s < 1:
        raise InputError("n and s must be positive")
    return min(1.0, 1.0 / math.sqrt(s * n))


@dataclass(frozen=True)
class TreePartition:
    """The local-tree decomposition of one routing tree.

    Frozen because :attr:`waves` is cached on first read: a partition with
    other forests is a new one (``dataclasses.replace``)."""

    tree_parent: Dict[NodeId, Optional[NodeId]]
    root: NodeId
    ut: Set[NodeId]  # U(T), always contains the root
    tree_forest: Forest  # all of T as a single-root forest
    local_forest: Forest  # T with edges into U(T) \ {root} removed

    @property
    def n(self) -> int:
        return len(self.tree_parent)

    @property
    def max_local_depth(self) -> int:
        return self.local_forest.height

    @cached_property
    def repr_rank(self) -> Dict[NodeId, int]:
        """Each vertex's position in repr order, vertices with equal reprs
        sharing one: a stable sort keyed by it orders exactly as one keyed
        by ``repr``, without calling ``repr`` again."""
        reprs = {v: repr(v) for v in self.tree_parent}
        rank = {key: i for i, key in enumerate(sorted(set(reprs.values())))}
        return {v: rank[key] for v, key in reprs.items()}

    @cached_property
    def waves(self) -> List[List[NodeId]]:
        """The senders of every local flood, one list per round: the
        vertices with T-children at each local depth that has any, in
        repr order.  Fixed by the partition, so computed once."""
        tree_children = self.tree_forest.children
        by_depth: Dict[int, List[NodeId]] = defaultdict(list)
        for v, d in self.local_forest.depth.items():
            if tree_children[v]:
                by_depth[d].append(v)
        rank = self.repr_rank.__getitem__
        return [sorted(by_depth[d], key=rank) for d in sorted(by_depth)]

    def virtual_parent_reference(self) -> Dict[NodeId, Optional[NodeId]]:
        """T'-parents derived by the simulator (tests only).

        The T'-parent of ``x`` is the local root of x's T-parent.  The
        distributed algorithm learns this via the Stage-0 flood instead.
        """
        out: Dict[NodeId, Optional[NodeId]] = {}
        for x in self.ut:
            p = self.tree_parent[x]
            out[x] = None if p is None else self.local_root_reference()[p]
        return out

    def local_root_reference(self) -> Dict[NodeId, NodeId]:
        """Each vertex's local-tree root (simulator-side reference)."""
        roots: Dict[NodeId, NodeId] = {}
        for r in self.local_forest.roots:
            for v in self.local_forest.subtree_vertices(r):
                roots[v] = r
        return roots


def partition_tree(
    tree_parent: Mapping[NodeId, Optional[NodeId]],
    *,
    q: Optional[float] = None,
    seed: int = 0,
    salt: str = "",
) -> TreePartition:
    """Sample U and build the local-tree partition of ``tree_parent``.

    ``salt`` lets the multi-tree runner give each tree an independent coin
    sequence from one seed.  The root is always in U(T).
    """
    root = tree_root(tree_parent)
    n = len(tree_parent)
    if q is None:
        q = default_sampling_probability(n)
    if not (0.0 < q <= 1.0):
        raise InputError(f"sampling probability q={q} out of range")
    rng = random.Random(f"tree-sample/{seed}/{salt}")
    ut: Set[NodeId] = {root}
    for v in sorted(tree_parent, key=repr):
        if rng.random() < q:
            ut.add(v)
    local_parent = {
        v: (None if v in ut else p) for v, p in tree_parent.items()
    }
    return TreePartition(
        tree_parent=dict(tree_parent),
        root=root,
        ut=ut,
        tree_forest=Forest.from_parent_map(tree_parent),
        local_forest=Forest.from_parent_map(local_parent),
    )

