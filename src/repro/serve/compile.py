"""S16 compiler: pack routing-scheme artifacts into flat serving tables.

The preprocessing phase produces dict-of-dataclass artifacts
(:mod:`repro.routing.artifacts`) that are convenient to build and verify but
slow to *serve*: every forwarded hop pays two hash lookups plus attribute
access on a frozen dataclass, and every light-edge test is a linear scan of
the label.  This module compiles a :class:`TreeRoutingScheme` or
:class:`GraphRoutingScheme` (in memory, or loaded from its
:mod:`repro.routing.serialization` JSON) into the packed form the query
engine (:mod:`repro.serve.engine`) consumes, in the same spirit as the
CSR fast path of the CONGEST engine (docs/performance.md):

* vertex ids and cluster-tree ids are **interned** to dense ints;
* each cluster tree becomes one :class:`PackedTree`: contiguous
  ``enter``/``exit``/``parent``/``heavy`` arrays indexed by a tree-local
  vertex index, with the edge weight to the parent / heavy child
  precomputed next to the pointer (``None`` marks a hop that is not a real
  graph edge, so the engine can reproduce the reference router's
  ``RoutingFailure`` exactly);
* each destination label becomes one :class:`PackedLabel` per usable level:
  the destination's DFS enter time plus the light-edge scan collapsed into
  a first-match dict ``local index -> (next hop, weight)``.

Compilation is pure preprocessing: nothing here is on the per-query path.
The packed form is documented in docs/serving.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import networkx as nx

from ..errors import InputError
from ..routing.artifacts import (
    GraphRoutingScheme,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
)
from ..telemetry import events as _tele

NodeId = Hashable

#: Sentinel local index meaning "no such vertex in this tree".
NO_VERTEX = -1


@dataclass
class PackedTree:
    """One cluster tree in flat, array-indexed form.

    Arrays are indexed by a *tree-local* vertex index ``li``; ``ids[li]``
    recovers the original vertex id (needed for reported paths and for
    byte-identical failure messages).  ``parent``/``heavy`` store the local
    index of the neighbour (:data:`NO_VERTEX` at the root / at leaves) and
    ``parent_id``/``heavy_id`` the original id (a forwarding target may
    legitimately leave the packed vertex set on malformed schemes, and the
    reference router only notices one hop later -- we must match that).
    """

    tree_id: Hashable
    ids: List[NodeId] = field(default_factory=list)
    local: Dict[NodeId, int] = field(default_factory=dict)
    enter: List[int] = field(default_factory=list)
    exit_: List[int] = field(default_factory=list)
    parent: List[int] = field(default_factory=list)
    parent_id: List[Optional[NodeId]] = field(default_factory=list)
    parent_w: List[Optional[float]] = field(default_factory=list)
    heavy: List[int] = field(default_factory=list)
    heavy_id: List[Optional[NodeId]] = field(default_factory=list)
    heavy_w: List[Optional[float]] = field(default_factory=list)
    root_distance: List[float] = field(default_factory=list)

    #: One-attribute-load bundle of the hot arrays, built by ``seal()``.
    #: Short routes are common, so the per-query cost of binding ten
    #: attributes would rival the hop loop itself; the engine unpacks
    #: this tuple instead.
    hot: Optional[tuple] = None

    def member(self, vertex: NodeId) -> bool:
        return vertex in self.local

    def seal(self) -> "PackedTree":
        self.hot = (
            self.enter, self.exit_,
            self.parent, self.parent_id, self.parent_w,
            self.heavy, self.heavy_id, self.heavy_w,
            self.local, self.tree_id,
        )
        return self

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PackedLabel:
    """A destination's tree label, compiled for O(1) light-edge decisions.

    ``light`` maps a tree-local index to ``(next_local, next_id, weight)``
    for the *first* light edge leaving that vertex (the reference scan
    returns the first match).  ``weight`` is ``None`` when the light edge is
    not an edge of the served graph.
    """

    enter: int
    light: Dict[int, Tuple[int, NodeId, Optional[float]]]
    words: int


@dataclass(frozen=True)
class PackedEntry:
    """One usable level of a destination's graph label."""

    __slots__ = ("level", "tree_index", "dist_to_root", "label")

    level: int
    tree_index: int
    dist_to_root: float
    label: PackedLabel


@dataclass(frozen=True)
class DecisionProvenance:
    """Origin of one packed decision-table candidate (S19 tracing).

    The decision table (:attr:`CompiledGraphScheme.decisions`) strips every
    candidate down to bare tuples for speed; this side-table keeps, in the
    *same candidate order*, what each tuple came from — the hierarchy level,
    the cluster-tree (= landmark) identity, and the label's advertised
    distance to the tree root — so a sampled :class:`~repro.tracing.QueryTrace`
    can annotate the committed decision without touching the hot path.
    """

    __slots__ = ("level", "tree_id", "tree_index", "root", "dist_to_root",
                 "tree_size", "label_words")

    level: int
    tree_id: Hashable
    tree_index: int
    root: Optional[NodeId]
    dist_to_root: float
    tree_size: int
    label_words: int


class CompiledTreeScheme:
    """A :class:`TreeRoutingScheme` packed for serving."""

    kind = "tree"

    def __init__(
        self,
        scheme: TreeRoutingScheme,
        graph: Optional[nx.Graph] = None,
    ) -> None:
        self.tree_id = scheme.tree_id
        self.root = scheme.root
        self.vertex_count = len(scheme.tables)
        #: Reference hop budget: ``2 * len(tables) + 2`` (router.py).
        self.default_budget = 2 * len(scheme.tables) + 2
        adj = _adjacency(graph)
        self.tree = _pack_tree(scheme.tree_id, scheme.tables, adj,
                               weighted=graph is not None)
        self.labels: Dict[NodeId, PackedLabel] = {
            v: _pack_label(label, self.tree, adj, weighted=graph is not None)
            for v, label in scheme.labels.items()
        }
        self.nodes: List[NodeId] = list(scheme.tables)
        #: Single-tree provenance for traced queries (level 0 by definition).
        self.provenance = DecisionProvenance(
            level=0,
            tree_id=scheme.tree_id,
            tree_index=0,
            root=scheme.root,
            dist_to_root=0.0,
            tree_size=self.tree.size,
            label_words=0,
        )

    def table_words(self) -> int:
        """Words across all packed per-vertex rows (5 words per vertex)."""
        return 5 * self.tree.size


class CompiledGraphScheme:
    """A :class:`GraphRoutingScheme` packed for serving.

    Per-tree structure is compiled from the **per-vertex tables** (not from
    ``tree_schemes``): the reference router consults only
    ``scheme.tables[at].trees``, and a scheme whose per-vertex tables are
    out of sync with its tree schemes must fail identically here.
    """

    kind = "graph"

    def __init__(self, scheme: GraphRoutingScheme, graph: nx.Graph) -> None:
        if graph is None:
            raise InputError("compiling a graph scheme requires the graph "
                             "(edge checks, weights, hop budget)")
        self.k = scheme.k
        self.n = graph.number_of_nodes()
        #: Reference hop budget: ``4 * graph.number_of_nodes() + 4``.
        self.default_budget = 4 * self.n + 4
        #: Vertices owning a GraphTable at all -- the reference raises
        #: ``KeyError`` (not ``RoutingFailure``) on a vertex outside this
        #: set, and the engine must match.
        self.table_ids = frozenset(scheme.tables)
        adj = _adjacency(graph)

        # -- intern cluster-tree ids over the union of per-vertex tables ----
        tree_ids: List[Hashable] = []
        tree_index: Dict[Hashable, int] = {}
        members: Dict[int, Dict[NodeId, TreeTable]] = {}
        for v, table in scheme.tables.items():
            for tid, row in table.trees.items():
                ti = tree_index.get(tid)
                if ti is None:
                    ti = tree_index[tid] = len(tree_ids)
                    tree_ids.append(tid)
                    members[ti] = {}
                members[ti][v] = row
        self.tree_ids = tree_ids
        self.tree_index = tree_index
        with _tele.span("serve/compile/trees", trees=len(tree_ids)):
            self.trees: List[PackedTree] = [
                _pack_tree(tree_ids[ti], members[ti], adj, weighted=True)
                for ti in range(len(tree_ids))
            ]

        # -- pack destination labels ----------------------------------------
        with _tele.span("serve/compile/labels", labels=len(scheme.labels)):
            self.entries: Dict[NodeId, Tuple[PackedEntry, ...]] = {}
            for v, label in scheme.labels.items():
                packed: List[PackedEntry] = []
                for i, entry in enumerate(label.entries):
                    if entry is None:
                        continue
                    tid, dist, tree_label = entry
                    ti = tree_index.get(tid)
                    if ti is None:
                        # The reference router skips this entry for every
                        # source (`has_tree` is False everywhere).
                        continue
                    packed.append(PackedEntry(
                        level=i,
                        tree_index=ti,
                        dist_to_root=dist,
                        label=_pack_label(tree_label, self.trees[ti], adj,
                                          weighted=True),
                    ))
                self.entries[v] = tuple(packed)
        self.nodes: List[NodeId] = list(scheme.labels)

        # -- flat decision table --------------------------------------------
        #: ``decisions[target]`` is the per-target candidate scan of
        #: ``entries[target]`` pre-resolved into bare tuples
        #: ``(local, (tree, label), root_distance, level, dist_to_root)``,
        #: in level order.  The engine's source rule is then one membership
        #: probe per candidate with zero dataclass attribute loads -- the
        #: decision scan runs on every cache miss, and attribute chasing on
        #: :class:`PackedEntry` was a measurable share of it.
        self.decisions = _decision_table(self.trees, self.entries)

        # -- provenance side-table (S19 tracing) ----------------------------
        #: ``provenance[target][i]`` describes ``decisions[target][i]``:
        #: candidate order is identical, so a replayed decision scan can
        #: recover level / landmark / tree identity from the committed
        #: candidate index alone.  ``bunch_levels[target]`` is the set of
        #: hierarchy levels present in the target's usable label — its bunch
        #: membership as the serving layer sees it.
        self.provenance = _provenance_table(self.trees, self.entries)
        self.bunch_levels = _bunch_levels(self.entries)

    def table_words(self) -> int:
        """Words across all packed per-tree rows (5 words per membership)."""
        return 5 * sum(t.size for t in self.trees)


CompiledScheme = Union[CompiledTreeScheme, CompiledGraphScheme]
Scheme = Union[TreeRoutingScheme, GraphRoutingScheme]


def compile_scheme(
    scheme: Scheme,
    graph: Optional[nx.Graph] = None,
) -> CompiledScheme:
    """Pack a built scheme for serving.

    ``graph`` supplies edge weights and the edge-existence check; it is
    required for graph schemes and optional for tree schemes (hop counts
    are served when omitted, exactly like ``route_in_tree`` without
    ``weight_of``).
    """
    with _tele.span("serve/compile", kind=type(scheme).__name__):
        if isinstance(scheme, TreeRoutingScheme):
            return CompiledTreeScheme(scheme, graph)
        if isinstance(scheme, GraphRoutingScheme):
            return CompiledGraphScheme(scheme, graph)
    raise InputError(f"cannot compile {type(scheme).__name__}")


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------

def _decision_table(
    trees: List[PackedTree],
    entries: Dict[NodeId, Tuple[PackedEntry, ...]],
) -> Dict[NodeId, Tuple[Tuple[Dict[NodeId, int],
                              Tuple[PackedTree, PackedLabel],
                              List[float], int, float], ...]]:
    """Resolve packed entries into the engine's bare candidate tuples.

    Shared between compilation and shared-memory reconstruction
    (:mod:`repro.shard.tables`), so the two code paths cannot drift.
    """
    return {
        v: tuple(
            (trees[e.tree_index].local,
             (trees[e.tree_index], e.label),
             trees[e.tree_index].root_distance,
             e.level, e.dist_to_root)
            for e in packed_entries
        )
        for v, packed_entries in entries.items()
    }


def _provenance_table(
    trees: List[PackedTree],
    entries: Dict[NodeId, Tuple[PackedEntry, ...]],
) -> Dict[NodeId, Tuple[DecisionProvenance, ...]]:
    """Candidate-order-aligned provenance rows (see ``provenance`` above)."""
    roots = [_tree_root(t) for t in trees]
    return {
        v: tuple(
            DecisionProvenance(
                level=e.level,
                tree_id=trees[e.tree_index].tree_id,
                tree_index=e.tree_index,
                root=roots[e.tree_index],
                dist_to_root=e.dist_to_root,
                tree_size=trees[e.tree_index].size,
                label_words=e.label.words,
            )
            for e in packed_entries
        )
        for v, packed_entries in entries.items()
    }


def _bunch_levels(
    entries: Dict[NodeId, Tuple[PackedEntry, ...]],
) -> Dict[NodeId, Tuple[int, ...]]:
    return {
        v: tuple(e.level for e in packed_entries)
        for v, packed_entries in entries.items()
    }


def _adjacency(
    graph: Optional[nx.Graph],
) -> Optional[Dict[Tuple[NodeId, NodeId], float]]:
    """Undirected edge -> weight map (both orientations), or None."""
    if graph is None:
        return None
    adj: Dict[Tuple[NodeId, NodeId], float] = {}
    for u, v, data in graph.edges(data=True):
        w = float(data.get("weight", 1.0))
        adj[(u, v)] = w
        adj[(v, u)] = w
    return adj


def _pack_tree(
    tree_id: Hashable,
    tables: Dict[NodeId, TreeTable],
    adj: Optional[Dict[Tuple[NodeId, NodeId], float]],
    *,
    weighted: bool,
) -> PackedTree:
    """Flatten one tree's per-vertex tables into a :class:`PackedTree`."""
    packed = PackedTree(tree_id=tree_id)
    for v in tables:
        packed.local[v] = len(packed.ids)
        packed.ids.append(v)
    for v, row in tables.items():
        packed.enter.append(row.enter)
        packed.exit_.append(row.exit_)
        packed.root_distance.append(row.root_distance or 0.0)
        for neighbour, idx_list, id_list, w_list in (
            (row.parent, packed.parent, packed.parent_id, packed.parent_w),
            (row.heavy, packed.heavy, packed.heavy_id, packed.heavy_w),
        ):
            if neighbour is None:
                idx_list.append(NO_VERTEX)
                id_list.append(None)
                w_list.append(None)
            else:
                idx_list.append(packed.local.get(neighbour, NO_VERTEX))
                id_list.append(neighbour)
                w_list.append(_edge_weight(adj, v, neighbour,
                                           weighted=weighted))
    return packed.seal()


def _pack_label(
    label: TreeLabel,
    tree: PackedTree,
    adj: Optional[Dict[Tuple[NodeId, NodeId], float]],
    *,
    weighted: bool,
) -> PackedLabel:
    light: Dict[int, Tuple[int, NodeId, Optional[float]]] = {}
    for u, v in label.light_edges:
        li = tree.local.get(u)
        if li is None or li in light:
            # Unreachable decision point for the engine / later duplicate:
            # the reference scan matches the first listed edge only.
            continue
        light[li] = (
            tree.local.get(v, NO_VERTEX),
            v,
            _edge_weight(adj, u, v, weighted=weighted),
        )
    return PackedLabel(enter=label.enter, light=light,
                       words=label.word_size())


def _tree_root(tree: PackedTree) -> Optional[NodeId]:
    """The tree's root vertex (no parent pointer), or None if malformed."""
    for li, parent in enumerate(tree.parent):
        if parent == NO_VERTEX and tree.parent_id[li] is None:
            return tree.ids[li]
    return None


def _edge_weight(
    adj: Optional[Dict[Tuple[NodeId, NodeId], float]],
    u: NodeId,
    v: NodeId,
    *,
    weighted: bool,
) -> Optional[float]:
    """Hop cost of forwarding ``u -> v``.

    Unweighted serving (tree schemes without a graph) charges 1.0 per hop.
    Weighted serving returns ``None`` for a non-edge so the engine can
    raise the reference router's "not an edge" failure at hop time.
    """
    if not weighted or adj is None:
        return 1.0
    return adj.get((u, v))


def _jsonable_summary(compiled: CompiledScheme) -> Dict[str, Any]:
    """Small provenance blob for RunRecords / benchmark twins."""
    if compiled.kind == "tree":
        return {
            "kind": "tree",
            "vertices": compiled.vertex_count,
            "packed_words": compiled.table_words(),
        }
    return {
        "kind": "graph",
        "k": compiled.k,
        "n": compiled.n,
        "trees": len(compiled.trees),
        "memberships": sum(t.size for t in compiled.trees),
        "packed_words": compiled.table_words(),
    }
