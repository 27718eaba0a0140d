"""Centralized rooted-tree utilities.

The Thorup-Zwick tree-routing scheme (recalled in Section 3 of the paper)
needs, per vertex: its subtree size, its *heavy child* (the child with the
largest subtree), the *light edges* on its root path (edges to non-heavy
children -- at most ``log2 n`` of them on any root path), and DFS entry/exit
times consistent with subtree sizes.  This module computes all of these
centrally; the distributed stages of :mod:`repro.treerouting` are validated
against these reference values, and the centralized TZ baseline
(:mod:`repro.tz.tree_scheme`) is built directly from them.

Trees are represented as parent maps (``root -> None``), matching
:class:`repro.congest.primitives.Forest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..errors import InputError

NodeId = Hashable
ParentMap = Mapping[NodeId, Optional[NodeId]]
LightEdges = Tuple[Tuple[NodeId, NodeId], ...]


def tree_root(parent: ParentMap) -> NodeId:
    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise InputError(f"expected exactly one root, found {len(roots)}")
    return roots[0]


def children_map(parent: ParentMap) -> Dict[NodeId, List[NodeId]]:
    children: Dict[NodeId, List[NodeId]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            if p not in children:
                raise InputError(f"parent {p!r} of {v!r} missing from tree")
            children[p].append(v)
    for kids in children.values():
        if len(kids) > 1:
            kids.sort(key=repr)
    return children


@dataclass(frozen=True)
class TreeProfile:
    """Everything the TZ tree scheme reads off one rooted tree, from one
    traversal (:func:`tree_profile`)."""

    root: NodeId
    #: children in the port order used everywhere in this library (by repr)
    children: Dict[NodeId, List[NodeId]]
    #: a pre-order (every vertex after its parent) visiting the *last* child
    #: first; reversed, it is the post-order that visits children in port
    #: order
    preorder: List[NodeId]
    sizes: Dict[NodeId, int]
    #: the child with the largest subtree (ties: largest repr), None at leaves
    heavy: Dict[NodeId, Optional[NodeId]]
    #: ``[enter, exit]`` with ``exit - enter + 1 == sizes[v]``, nested
    intervals: Dict[NodeId, Tuple[int, int]]
    #: the light edges on the root-to-``v`` path, top down
    light_edges: Dict[NodeId, LightEdges]


def tree_profile(parent: ParentMap) -> TreeProfile:
    """Root, children, sizes, heavy children, DFS intervals and light-edge
    lists of one tree in a single pass.

    Raises :class:`InputError` unless ``parent`` is one rooted tree: exactly
    one root, no parent missing from the map, no cycle.
    """
    root = tree_root(parent)
    children = children_map(parent)
    preorder: List[NodeId] = []
    stack = [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(children[v])
    if len(preorder) != len(parent):
        raise InputError("parent map contains a cycle")

    sizes: Dict[NodeId, int] = {}
    heavy: Dict[NodeId, Optional[NodeId]] = dict.fromkeys(parent)
    for v in reversed(preorder):
        total = 1
        largest = 0
        for c in children[v]:
            size = sizes[c]
            total += size
            if size >= largest:  # port order: on equal sizes the last repr wins
                largest = size
                heavy[v] = c
        sizes[v] = total

    intervals: Dict[NodeId, Tuple[int, int]] = {root: (1, sizes[root])}
    light_edges: Dict[NodeId, LightEdges] = {root: ()}
    for u in preorder:
        kids = children[u]
        if not kids:
            continue
        offset = intervals[u][0] + 1
        inherited = light_edges[u]
        heavy_child = heavy[u]
        for v in kids:
            size = sizes[v]
            intervals[v] = (offset, offset + size - 1)
            offset += size
            light_edges[v] = (
                inherited if v == heavy_child else inherited + ((u, v),)
            )
    return TreeProfile(
        root=root,
        children=children,
        preorder=preorder,
        sizes=sizes,
        heavy=heavy,
        intervals=intervals,
        light_edges=light_edges,
    )


def depths(parent: ParentMap) -> Dict[NodeId, int]:
    """Hop depth of every vertex, from one children pass and one walk down
    (no :func:`tree_profile`).  Raises what :func:`tree_profile` raises on a
    malformed map: two roots, a dangling parent, a cycle."""
    root = tree_root(parent)
    children = children_map(parent)
    out = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        kids = children[v]
        if kids:
            below = out[v] + 1
            for c in kids:
                out[c] = below
            stack.extend(kids)
    if len(out) != len(parent):
        raise InputError("parent map contains a cycle")
    return out


def _root_path(parent: ParentMap, v: NodeId) -> List[NodeId]:
    """``v``, its parent, ..., the root.  A ``v`` outside the tree is a
    ``KeyError``; a malformed map is an :class:`InputError`."""
    path = [v]
    p = parent[v]
    while p is not None:
        if p not in parent:
            raise InputError(f"parent {p!r} of {path[-1]!r} missing from tree")
        if len(path) == len(parent):
            raise InputError("parent map contains a cycle")
        path.append(p)
        p = parent[p]
    return path


def tree_path(parent: ParentMap, u: NodeId, v: NodeId) -> List[NodeId]:
    """The unique u-v path in the tree (via lowest common ancestor), found
    by walking to the root from both ends: O(depth) per query."""
    left = _root_path(parent, u)
    right = _root_path(parent, v)
    if left[-1] != right[-1]:
        raise InputError(f"{u!r} and {v!r} hang under different roots")
    # Both end at the root; the paths agree from the LCA up.
    i, j = len(left) - 1, len(right) - 1
    while i > 0 and j > 0 and left[i - 1] == right[j - 1]:
        i -= 1
        j -= 1
    return left[: i + 1] + right[:j][::-1]


def tree_distance(
    parent: ParentMap,
    weight_of,
    u: NodeId,
    v: NodeId,
) -> float:
    """Weighted length of the unique tree path (``weight_of(a, b)`` gives
    the edge weight)."""
    path = tree_path(parent, u, v)
    return sum(weight_of(path[i], path[i + 1]) for i in range(len(path) - 1))
