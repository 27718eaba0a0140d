"""Prior-work distributed tree routing in the style of [EN16b]/[LPP16].

This is the Table-2 comparison row.  The earlier schemes partition T into
local trees exactly as Section 3 does, but then

* build a **separate routing scheme for the virtual tree T'** by
  *broadcasting the entire virtual tree* and computing the scheme locally
  at every virtual vertex -- "constructing a tree routing scheme for T'
  involved broadcasting the entire virtual tree, storing it in local memory
  of all virtual vertices, and computing the scheme locally.  This resulted
  in prohibitively high memory usage" (Θ(|U(T)|) = Θ(sqrt n) words); and
* compose the virtual scheme with per-local-tree schemes: "when routing in
  T', traveling over a virtual edge (x, y), one has to route in T_x from x
  to the parent of y.  This requires storing additional routing information
  for this subtree, increasing both label and table size."  Labels grow to
  O(log^2 n) words (a local crossing label per virtual light edge) and
  tables to O(log n) words (every vertex keeps the crossing label of its
  local tree's *heavy* virtual child).

Only the *build* is reproduced: the T2/F2/F3 experiments measure its memory
(Θ(sqrt n)), label and table sizes against the paper's construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..congest.bfs import BfsTree, build_bfs_tree
from ..congest.broadcast import broadcast_all
from ..congest.network import Network
from ..congest.primitives import convergecast_up
from ..routing.artifacts import TreeLabel, TreeTable
from ..telemetry.events import phase
from ..treerouting.sampling import TreePartition, partition_tree
from ..treerouting.stage0_partition import run_stage0
from ..tz.tree_scheme import build_tree_scheme

NodeId = Hashable


@dataclass
class CompositeLabel:
    """[EN16b]-style label: virtual part + crossing info: O(log^2 n) words.

    ``crossing_labels[(a, b)]`` is the local label (inside T_a) of the
    T-parent of ``b``, for every virtual *light* edge (a, b) on the root
    path of the destination's local root.
    """

    local_root: NodeId
    virtual_label: TreeLabel
    crossing_labels: Tuple[Tuple[NodeId, NodeId, TreeLabel], ...]
    local_label: TreeLabel

    def word_size(self) -> int:
        words = 1 + self.virtual_label.word_size() + self.local_label.word_size()
        for _, _, crossing in self.crossing_labels:
            words += 2 + crossing.word_size()
        return words


@dataclass
class CompositeTable:
    """[EN16b]-style table: O(log n) words.

    Every vertex stores its local table, the identity of its local tree's
    heavy virtual child together with that child's crossing label (needed
    whenever the virtual route descends a heavy virtual edge through this
    local tree), and -- virtual vertices only -- the virtual table.
    """

    local_root: NodeId
    local_table: TreeTable
    virtual_table: Optional[TreeTable]
    heavy_virtual_child: Optional[NodeId]
    heavy_crossing: Optional[TreeLabel]

    def word_size(self) -> int:
        words = 1 + self.local_table.word_size()
        if self.virtual_table is not None:
            words += self.virtual_table.word_size()
        if self.heavy_crossing is not None:
            words += 1 + self.heavy_crossing.word_size()
        return words


@dataclass
class En16TreeScheme:
    """The composite scheme for one tree."""

    tree_id: Hashable
    root: NodeId
    partition: TreePartition
    tables: Dict[NodeId, CompositeTable]
    labels: Dict[NodeId, CompositeLabel]

    def max_table_words(self) -> int:
        return max(t.word_size() for t in self.tables.values())

    def max_label_words(self) -> int:
        return max(l.word_size() for l in self.labels.values())


@dataclass
class En16Build:
    scheme: En16TreeScheme
    rounds: int
    max_memory_words: int


def build_en16_tree_scheme(
    net: Network,
    tree_parent: Mapping[NodeId, Optional[NodeId]],
    *,
    q: Optional[float] = None,
    seed: int = 0,
    bfs: Optional[BfsTree] = None,
    tree_id: Optional[Hashable] = None,
) -> En16Build:
    """Build the baseline scheme, with its Θ(sqrt n) memory behaviour."""
    rounds_before = net.metrics.total_rounds
    part = partition_tree(tree_parent, q=q, seed=seed, salt="en16")
    if bfs is None:
        bfs = build_bfs_tree(net)
    info = run_stage0(net, part, mem_prefix="en16")

    # Local subtree sizes, as in Section 3.1 (the local schemes need them).
    with phase(net, "en16/local-sizes"):
        convergecast_up(net, part.local_forest, leaf_value=lambda v: 1,
                        combine=lambda v, sizes: 1 + sum(sizes))

    # THE BASELINE'S SIN: broadcast the whole virtual tree and store it at
    # every virtual vertex.  Θ(|U(T)|) = Θ(sqrt n) words each.
    virtual_edges = [
        (x, (x, p)) for x, p in sorted(info.virtual_parent.items(), key=repr)
        if p is not None
    ]
    with phase(net, "en16/broadcast-T'"):
        broadcast_all(net, bfs, virtual_edges)
    net.store_each("en16/virtual-tree",
                   dict.fromkeys(part.ut, 2 * max(1, len(virtual_edges))))

    # Per-local-tree schemes (parallel, depth Õ(1/q) rounds) and the virtual
    # scheme, computed locally at every virtual vertex from the broadcast.
    local_parent = dict(part.local_forest.parent)
    local_schemes: Dict[NodeId, object] = {}
    for w in sorted(part.ut, key=repr):
        sub = {v: local_parent[v] for v in part.local_forest.subtree_vertices(w)}
        local_schemes[w] = build_tree_scheme(sub, tree_id=("local", w))
    virtual_scheme = build_tree_scheme(
        dict(info.virtual_parent), tree_id=("virtual", part.root)
    )
    with phase(net, "en16/local-schemes"):
        net.charge_rounds(3 * (part.max_local_depth + 1))

    # Heavy virtual children and their crossing labels, per local tree.
    local_root = info.local_root
    heavy_virtual: Dict[NodeId, Optional[NodeId]] = {}
    heavy_crossing: Dict[NodeId, Optional[TreeLabel]] = {}
    for w in part.ut:
        hv = virtual_scheme.tables[w].heavy
        heavy_virtual[w] = hv
        if hv is None:
            heavy_crossing[w] = None
        else:
            crossing_point = tree_parent[hv]
            heavy_crossing[w] = local_schemes[w].labels[crossing_point]

    tables: Dict[NodeId, CompositeTable] = {}
    labels: Dict[NodeId, CompositeLabel] = {}
    for v in tree_parent:
        w = local_root[v]
        lscheme = local_schemes[w]
        tables[v] = CompositeTable(
            local_root=w,
            local_table=lscheme.tables[v],
            virtual_table=virtual_scheme.tables[v] if v in part.ut else None,
            heavy_virtual_child=heavy_virtual[w],
            heavy_crossing=heavy_crossing[w],
        )
        vlabel = virtual_scheme.labels[w]
        crossings: List[Tuple[NodeId, NodeId, TreeLabel]] = []
        for (a, b) in vlabel.light_edges:
            crossing_point = tree_parent[b]
            crossings.append((a, b, local_schemes[a].labels[crossing_point]))
        labels[v] = CompositeLabel(
            local_root=w,
            virtual_label=vlabel,
            crossing_labels=tuple(crossings),
            local_label=lscheme.labels[v],
        )

    net.store_each("en16/table", {v: table.word_size() for v, table in tables.items()})
    net.store_each("en16/label", {v: label.word_size() for v, label in labels.items()})

    scheme = En16TreeScheme(
        tree_id=tree_id if tree_id is not None else part.root,
        root=part.root,
        partition=part,
        tables=tables,
        labels=labels,
    )
    return En16Build(
        scheme=scheme,
        rounds=net.metrics.total_rounds - rounds_before,
        max_memory_words=net.max_memory(),
    )

