"""The distributed low-memory tree-routing construction (Theorem 2).

Orchestrates Stages 0-3 over a CONGEST network and assembles the
[TZ01b]-style artifacts:

* routing table: O(1) words  (DFS interval, parent, heavy child);
* label:         O(log n) words  (DFS entry time + light edges);
* per-vertex memory during construction: O(log n) words
  (the meters' high-water marks are checked by the experiments golden);
* rounds: Õ(sqrt(n) + D) with the default ``q = 1/sqrt(n)``.

The output is bit-identical to the centralized construction
(:func:`repro.tz.tree_scheme.build_tree_scheme`) because both use the same
deterministic port order -- tests compare them field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional

from ..congest.bfs import BfsTree, build_bfs_tree
from ..congest.network import Network
from ..graphs.validation import require_tree_in_graph
from ..routing.artifacts import TreeRoutingScheme
from ..telemetry import events as _tele
from .sampling import TreePartition, partition_tree
from .stage0_partition import run_stage0
from .stage1_sizes import run_stage1
from .stage2_light import run_stage2
from .stage3_dfs import run_stage3

NodeId = Hashable


@dataclass
class DistributedTreeBuild:
    """Result bundle: the scheme plus construction-cost observability."""

    scheme: TreeRoutingScheme
    partition: TreePartition
    rounds: int
    messages: int
    max_memory_words: int

    @property
    def ut_size(self) -> int:
        return len(self.partition.ut)


def build_distributed_tree_scheme(
    net: Network,
    tree_parent: Mapping[NodeId, Optional[NodeId]],
    *,
    q: Optional[float] = None,
    seed: int = 0,
    salt: str = "",
    bfs: Optional[BfsTree] = None,
    tree_id: Optional[Hashable] = None,
    mem_prefix: str = "tree",
) -> DistributedTreeBuild:
    """Run the full distributed construction for one tree.

    ``net`` is the surrounding network G (broadcasts use its BFS tree of
    depth <= D, even when the tree T itself is much deeper).  ``q`` defaults
    to ``1/sqrt(n)``; the multi-tree runner passes ``1/sqrt(s n)``.
    """
    require_tree_in_graph(net.graph, tree_parent)
    rounds_before = net.metrics.total_rounds
    messages_before = net.metrics.messages

    with _tele.span("tree/partition", n=net.n):
        part = partition_tree(tree_parent, q=q, seed=seed, salt=salt)
        if bfs is None:
            bfs = build_bfs_tree(net)
    with _tele.span("tree/stage0"):
        info = run_stage0(net, part, mem_prefix=mem_prefix)
    with _tele.span("tree/stage1"):
        size_info = run_stage1(net, bfs, part, info, mem_prefix=mem_prefix)
    with _tele.span("tree/stage2"):
        light_info = run_stage2(net, bfs, part, info, size_info,
                                mem_prefix=mem_prefix)
    with _tele.span("tree/stage3"):
        dfs_info = run_stage3(net, bfs, part, info, size_info,
                              mem_prefix=mem_prefix)

    with _tele.span("tree/assemble"):
        scheme = TreeRoutingScheme.of_tree(
            tree_id if tree_id is not None else part.root, part.root,
            tree_parent, size_info.heavy, dfs_info.intervals,
            light_info.light_edges)
        net.store_each(f"{mem_prefix}/table",
                       {v: scheme.table_words(v) for v in tree_parent})
        net.store_each(f"{mem_prefix}/label",
                       {v: scheme.label_words(v) for v in tree_parent})
    max_memory_words = net.max_memory()
    _tele.gauge("memory.high_water_words", max_memory_words)
    return DistributedTreeBuild(
        scheme=scheme,
        partition=part,
        rounds=net.metrics.total_rounds - rounds_before,
        messages=net.metrics.messages - messages_before,
        max_memory_words=max_memory_words,
    )
