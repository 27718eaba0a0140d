"""Parallel construction for many trees (Theorem 2, second assertion).

"Given a network with n vertices and a set of trees so that each vertex is
contained in at most s trees, one can compute an exact tree routing scheme
... for all trees in parallel, within Õ(sqrt(s n) + D) rounds, while using
memory O(s log n) at each vertex."

The recipe: sample with ``q = 1/sqrt(s n)`` (bigger local trees, but far
fewer virtual vertices per tree, so the *global* broadcast traffic summed
over all trees stays Õ(sqrt(s n))), and give every tree a random start
offset from a window of ``⌈sqrt(s n) · max(1, ln n)⌉`` rounds so that, whp,
the local-tree phases of different trees do not congest any edge.

:func:`build_tree_schemes` is the one driver: the general-graph scheme
runs it on its cluster trees (with their root distances), F8 on random
spanning trees.  The simulator executes the trees one after another (their
message schedules are independent given their offsets), so the honest
*sequential* round total is the sum; :class:`MultiTreeBuild` additionally
reports the parallel schedule length ``window + slowest tree``, which is
the quantity Theorem 2 bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional

from ..congest.bfs import BfsTree, build_bfs_tree
from ..congest.network import Network
from ..errors import InputError
from ..routing.artifacts import TreeRoutingScheme
from ..telemetry import events as _tele
from .sampling import default_sampling_probability
from .scheme import build_distributed_tree_scheme

NodeId = Hashable
ParentMap = Mapping[NodeId, Optional[NodeId]]


@dataclass
class MultiTreeBuild:
    """Result of the parallel multi-tree construction."""

    schemes: Dict[Hashable, TreeRoutingScheme]
    s: int  # max trees through one vertex
    q: float
    window: int  # the random start offsets' range, in rounds
    per_tree_rounds: Dict[Hashable, int]
    rounds_sequential: int

    @property
    def rounds_parallel(self) -> int:
        """The Theorem-2 schedule: offset window + slowest tree."""
        return self.window + max(self.per_tree_rounds.values())


def max_trees_per_vertex(trees: Mapping[Hashable, ParentMap]) -> int:
    counts: Dict[NodeId, int] = {}
    for parent in trees.values():
        for v in parent:
            counts[v] = counts.get(v, 0) + 1
    return max(counts.values()) if counts else 0


def build_tree_schemes(
    net: Network,
    trees: Mapping[Hashable, ParentMap],
    *,
    seed: int = 0,
    bfs: Optional[BfsTree] = None,
) -> MultiTreeBuild:
    """Build routing schemes for all ``trees`` with shared sampling rate.

    ``trees`` maps a tree id to its parent map.  Every tree's vertices must
    live in ``net``; a vertex may appear in many trees (s is measured, not
    assumed).
    """
    if not trees:
        raise InputError("no trees given")
    s = max_trees_per_vertex(trees)
    q = default_sampling_probability(net.n, s)
    if bfs is None:
        bfs = build_bfs_tree(net)
    window = math.ceil(math.sqrt(s * net.n) * max(1.0, math.log(net.n)))

    schemes: Dict[Hashable, TreeRoutingScheme] = {}
    per_tree_rounds: Dict[Hashable, int] = {}
    rounds_before = net.metrics.total_rounds
    for tree_id in sorted(trees, key=repr):
        with _tele.span("tree/build", tree=tree_id):
            build = build_distributed_tree_scheme(
                net,
                trees[tree_id],
                q=q,
                seed=seed,
                salt=f"ct/{tree_id!r}",
                bfs=bfs,
                tree_id=tree_id,
                mem_prefix=f"ct/{tree_id!r}",
            )
        schemes[tree_id] = build.scheme
        per_tree_rounds[tree_id] = build.rounds
    return MultiTreeBuild(
        schemes=schemes,
        s=s,
        q=q,
        window=window,
        per_tree_rounds=per_tree_rounds,
        rounds_sequential=net.metrics.total_rounds - rounds_before,
    )
