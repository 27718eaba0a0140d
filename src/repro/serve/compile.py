"""S16 compiler: pack routing-scheme artifacts into flat serving tables.

The preprocessing phase produces column-backed artifacts
(:mod:`repro.routing.artifacts`) whose per-vertex views are convenient to
verify but slow to *serve*: every forwarded hop would build a frozen
dataclass, and every light-edge test is a linear scan of the label.  This
module compiles a :class:`TreeRoutingScheme` or
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
  a first-match dict ``local index -> (next hop, weight)``;
* per destination, its usable levels become the ``decisions`` candidate
  tuples the engine's source rule scans -- the one per-target table, and
  where a sampled trace reads its level, tree and root.

Both compiled classes are built from parts (scalars, packed trees,
per-target ``(level, tree_index, dist_to_root, label)`` rows): here, and
when a shard worker decodes the table image (:mod:`repro.shard.tables`).
Compilation is pure preprocessing: nothing here is on the per-query path.
The packed form is documented in docs/serving.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Hashable, Iterable, List, Optional, Sequence,
                    Tuple, Union)

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

    #: One-attribute-load bundle of the hot arrays, built by ``seal()``.
    #: Short routes are common, so the per-query cost of binding ten
    #: attributes would rival the hop loop itself; the engine unpacks
    #: this tuple instead.
    hot: Optional[tuple] = None

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


#: One usable level of a destination's label, as both constructors take
#: it and the table image stores it: ``(level, tree_index, dist_to_root,
#: label)``.
Row = Tuple[int, int, float, PackedLabel]

#: One ``decisions`` candidate: ``(local, (tree, label), level,
#: dist_to_root)``.
Candidate = Tuple[Dict[NodeId, int], Tuple[PackedTree, PackedLabel],
                  int, float]


class CompiledTreeScheme:
    """A :class:`TreeRoutingScheme` packed for serving.

    Built from parts -- the packed tree, per-target rows and scalars --
    by :func:`compile_scheme` and by shared-memory reconstruction
    (:mod:`repro.shard.tables`) alike.  A tree scheme's ``rows[v]`` holds
    exactly one ``(0, 0, 0.0, label)`` row.
    """

    kind = "tree"

    def __init__(
        self,
        tree: PackedTree,
        rows: Dict[NodeId, Sequence[Row]],
        *,
        root: Optional[NodeId],
        vertex_count: int,
        default_budget: int,
    ) -> None:
        self.tree = tree
        self.root = root
        self.vertex_count = vertex_count
        #: Reference hop budget: ``2 * len(tables) + 2`` (router.py).
        self.default_budget = default_budget
        self.labels: Dict[NodeId, PackedLabel] = {
            v: label for v, ((_, _, _, label),) in rows.items()}
        self.nodes: List[NodeId] = list(tree.ids)

    def table_words(self) -> int:
        """Words across all packed per-vertex rows (5 words per vertex)."""
        return 5 * self.tree.size


class CompiledGraphScheme:
    """A :class:`GraphRoutingScheme` packed for serving.

    Built from parts -- the packed trees, per-target ``(level,
    tree_index, dist_to_root, label)`` rows and scalars -- by
    :func:`compile_scheme` and by shared-memory reconstruction
    (:mod:`repro.shard.tables`) alike.
    """

    kind = "graph"

    def __init__(
        self,
        trees: List[PackedTree],
        rows: Dict[NodeId, Sequence[Row]],
        *,
        k: int,
        n: int,
        default_budget: int,
        table_ids: Iterable[NodeId],
    ) -> None:
        self.k = k
        self.n = n
        #: Reference hop budget: ``4 * graph.number_of_nodes() + 4``.
        self.default_budget = default_budget
        #: Vertices owning a GraphTable at all -- the reference raises
        #: ``KeyError`` (not ``RoutingFailure``) on a vertex outside this
        #: set, and the engine must match.
        self.table_ids = frozenset(table_ids)
        self.trees = trees
        #: ``decisions[target]`` -- the one per-target table -- is the
        #: target's usable label entries in level order, pre-resolved
        #: into bare tuples ``(local, (tree, label), level,
        #: dist_to_root)``.  The engine's source rule is then one
        #: membership probe per candidate with zero attribute loads (the
        #: scan runs on every cache miss), and a trace reads its
        #: provenance off the committed tuple.
        self.decisions: Dict[NodeId, Tuple[Candidate, ...]] = {
            v: tuple((trees[ti].local, (trees[ti], label), level, dist)
                     for level, ti, dist, label in target_rows)
            for v, target_rows in rows.items()
        }
        self.nodes: List[NodeId] = list(self.decisions)

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
            return _compile_tree(scheme, graph)
        if isinstance(scheme, GraphRoutingScheme):
            return _compile_graph(scheme, graph)
    raise InputError(f"cannot compile {type(scheme).__name__}")


def _compile_tree(
    scheme: TreeRoutingScheme,
    graph: Optional[nx.Graph],
) -> CompiledTreeScheme:
    adj = _adjacency(graph)
    weighted = graph is not None
    ids = list(scheme.index)
    tree = _pack_tree(scheme.tree_id, ids, scheme.columns_of(ids), adj,
                      weighted=weighted)
    rows = {v: ((0, 0, 0.0, _pack_label(label, tree, adj, weighted=weighted)),)
            for v, label in scheme.labels.items()}
    return CompiledTreeScheme(
        tree, rows, root=scheme.root, vertex_count=len(ids),
        default_budget=2 * len(ids) + 2)


def _compile_graph(
    scheme: GraphRoutingScheme,
    graph: Optional[nx.Graph],
) -> CompiledGraphScheme:
    """Per-tree structure is compiled from the **per-vertex tables** (not
    from ``tree_schemes``): the reference router consults only
    ``scheme.tables[at].trees``, and a scheme whose per-vertex tables are
    out of sync with its tree schemes must fail identically here."""
    if graph is None:
        raise InputError("compiling a graph scheme requires the graph "
                         "(edge checks, weights, hop budget)")
    adj = _adjacency(graph)

    # -- intern cluster-tree ids over the union of per-vertex tables --------
    tree_index: Dict[Hashable, int] = {}
    members: List[List[NodeId]] = []
    held: List[list] = []  # each member's GraphTable entry
    for v, table in scheme.tables.items():
        for tid, entry in table.trees.entries.items():
            ti = tree_index.get(tid)
            if ti is None:
                ti = tree_index[tid] = len(members)
                members.append([])
                held.append([])
            members[ti].append(v)
            held[ti].append(entry)
    with _tele.span("serve/compile/trees", trees=len(tree_index)):
        trees = [
            _pack_tree(tid, ids, _member_columns(ids, entries), adj,
                       weighted=True)
            for tid, ids, entries in zip(tree_index, members, held)
        ]

    # -- pack destination labels into (level, tree, dist, label) rows -------
    with _tele.span("serve/compile/labels", labels=len(scheme.labels)):
        rows: Dict[NodeId, List[Row]] = {}
        for v, label in scheme.labels.items():
            target_rows: List[Row] = []
            for level, entry in enumerate(label.entries):
                if entry is None:
                    continue
                tid, dist, tree_label = entry
                ti = tree_index.get(tid)
                if ti is None:
                    # The reference router skips this entry for every
                    # source (`has_tree` is False everywhere).
                    continue
                target_rows.append((level, ti, dist, _pack_label(
                    tree_label, trees[ti], adj, weighted=True)))
            rows[v] = target_rows
    n = graph.number_of_nodes()
    return CompiledGraphScheme(
        trees, rows, k=scheme.k, n=n, default_budget=4 * n + 4,
        table_ids=scheme.tables)


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------

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


def _member_columns(ids: List[NodeId], entries: list) -> List[list]:
    """The four forwarding columns of one tree's members: read off the
    tree scheme's columns when every entry refers to the same one."""
    first = entries[0]
    if not isinstance(first, TreeTable) and all(e is first for e in entries):
        return first.columns_of(ids)
    rows = [e if isinstance(e, TreeTable) else e.table_of(v)
            for v, e in zip(ids, entries)]
    return [[getattr(row, name) for row in rows] for name in
            ("enter", "exit_", "parent", "heavy")]


def _pack_tree(
    tree_id: Hashable,
    ids: List[NodeId],
    columns: List[list],
    adj: Optional[Dict[Tuple[NodeId, NodeId], float]],
    *,
    weighted: bool,
) -> PackedTree:
    """One tree's rows (``ids`` and their ``enter`` / ``exit_`` / ``parent``
    / ``heavy`` columns, in tree-local order) plus the local indices and
    weights of each parent and heavy pointer."""
    enter, exit_, parent_id, heavy_id = columns
    local = dict(zip(ids, range(len(ids))))

    def pointers(targets: List[Optional[NodeId]]) -> Tuple[List[int], list]:
        return (
            [NO_VERTEX if t is None else local.get(t, NO_VERTEX) for t in targets],
            [None if t is None else _edge_weight(adj, v, t, weighted=weighted)
             for v, t in zip(ids, targets)],
        )

    parent, parent_w = pointers(parent_id)
    heavy, heavy_w = pointers(heavy_id)
    return PackedTree(
        tree_id=tree_id, ids=ids, local=local, enter=enter, exit_=exit_,
        parent=parent, parent_id=parent_id, parent_w=parent_w, heavy=heavy,
        heavy_id=heavy_id, heavy_w=heavy_w,
    ).seal()


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
