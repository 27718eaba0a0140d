"""Routing-scheme artifacts: tables, labels, headers.

Both the centralized Thorup-Zwick constructions (:mod:`repro.tz`) and the
paper's distributed constructions (:mod:`repro.treerouting`,
:mod:`repro.core`) produce the *same* artifact types, so the routing-phase
simulator (:mod:`repro.routing.router`) and the benchmarks can treat them
uniformly and compare sizes word for word.

Word accounting follows :mod:`repro.wordsize`: a vertex id, a port, a DFS
time, and a distance each cost one word.  ``word_size()`` on each artifact
is what Tables 1-2's "Table size" / "Label size" columns report.

Tree routing (Section 3, after [TZ01b]):

* :class:`TreeTable` -- what a vertex stores: its DFS interval, its parent,
  and its heavy child.  **O(1) words.**
* :class:`TreeLabel` -- what a destination advertises: its DFS enter time
  and the light edges on its root path.  **O(log n) words** (<= log2 n light
  edges of 2 words each).
* :class:`TreeRoutingScheme` -- one tree's tables and labels, stored as
  columns; ``tables[v]`` / ``labels[v]`` build the two objects above on
  demand.

General graphs (Appendix B):

* :class:`GraphTable` -- the tree tables of every cluster tree containing
  the vertex, keyed by the tree's root.  **Õ(n^{1/k}) words** via Claim 6.
* :class:`GraphLabel` -- per level ``i``: the (approximate) ``i``-pivot, the
  advertised distance to it, and the vertex's tree label in the pivot's
  cluster tree.  **O(k log n) words** -- the improvement over the
  O(k log^2 n) labels of [EN16b, LPP16].
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

NodeId = Hashable
TreeId = Hashable


@dataclass(frozen=True)
class TreeTable:
    """Per-vertex routing table for one tree: O(1) words.

    ``enter``/``exit_`` delimit the vertex's DFS interval (descendant test),
    ``parent`` and ``heavy`` are neighbour ids (``None`` at the root / at
    leaves): the four words tree routing reads.
    """

    enter: int
    exit_: int
    parent: Optional[NodeId]
    heavy: Optional[NodeId]

    def word_size(self) -> int:
        return 4  # enter, exit, parent, heavy

    def contains(self, enter_time: int) -> bool:
        """Is the vertex with DFS entry ``enter_time`` in my subtree?"""
        return self.enter <= enter_time <= self.exit_


@dataclass(frozen=True)
class TreeLabel:
    """Destination label for one tree: O(log n) words.

    ``light_edges`` lists the (parent, child) pairs of the non-heavy edges
    on the root-to-vertex path, ordered root-first; there are at most
    ``log2 n`` of them.
    """

    enter: int
    light_edges: Tuple[Tuple[NodeId, NodeId], ...] = ()

    def word_size(self) -> int:
        return 1 + 2 * len(self.light_edges)

    def next_light_hop(self, at: NodeId) -> Optional[NodeId]:
        """The light edge leaving ``at`` on the path to me, if any."""
        for u, v in self.light_edges:
            if u == at:
                return v
        return None


@dataclass(frozen=True)
class GraphLabel:
    """Destination label for the general-graph scheme: O(k log n) words.

    ``entries[i]`` describes level ``i``: the (approximate) ``i``-pivot
    ``w``, the advertised distance from the vertex to ``w``'s tree root
    along the cluster tree, and the vertex's :class:`TreeLabel` in ``w``'s
    tree.  A level whose pivot's cluster does not contain the vertex stores
    ``None`` (possible only on distance ties; see
    :mod:`repro.tz.graph_scheme`).
    """

    vertex: NodeId
    entries: Tuple[Optional[Tuple[NodeId, float, TreeLabel]], ...]

    def word_size(self) -> int:
        words = 1  # own id
        for entry in self.entries:
            words += 1  # presence tag
            if entry is not None:
                _, _, tree_label = entry
                words += 2 + tree_label.word_size()
        return words


class TreeTables(MutableMapping):
    """``GraphTable.trees``: tree id -> the vertex's :class:`TreeTable`.

    ``entries[tree]`` is either the tree's :class:`TreeRoutingScheme` -- a
    *reference* to the scheme's row for ``vertex``, built into a
    :class:`TreeTable` on every read -- or a private :class:`TreeTable`,
    which is what assignment stores.  :func:`graph_tables` and the scheme
    decoder store references.
    """

    __slots__ = ("vertex", "entries")

    def __init__(self, vertex: NodeId, entries: Dict[TreeId, Any]) -> None:
        self.vertex = vertex
        self.entries = entries

    def __getitem__(self, tree: TreeId) -> TreeTable:
        entry = self.entries[tree]
        return entry if isinstance(entry, TreeTable) else entry.table_of(self.vertex)

    def __setitem__(self, tree: TreeId, table: TreeTable) -> None:
        self.entries[tree] = table

    def __delitem__(self, tree: TreeId) -> None:
        del self.entries[tree]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tree: object) -> bool:
        return tree in self.entries

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass
class GraphTable:
    """Per-vertex table for the general-graph scheme: Õ(n^{1/k}) words.

    Maps the root of every cluster tree containing this vertex to the
    vertex's :class:`TreeTable` in that tree; the mapping given is copied
    into a :class:`TreeTables`.
    """

    vertex: NodeId
    trees: TreeTables = field(default_factory=dict)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        trees = self.trees
        self.trees = TreeTables(self.vertex, dict(
            trees.entries if isinstance(trees, TreeTables) else trees))

    def word_size(self) -> int:
        v = self.vertex
        return 1 + sum(
            1 + (entry.word_size() if isinstance(entry, TreeTable)
                 else entry.table_words(v))
            for entry in self.trees.entries.values())

    def has_tree(self, root: TreeId) -> bool:
        return root in self.trees.entries


def graph_tables(
    vertices: Iterable[NodeId],
    tree_schemes: Mapping[TreeId, "TreeRoutingScheme"],
) -> Dict[NodeId, GraphTable]:
    """Every vertex's table: a reference to its row in each tree scheme
    that has one, in ``tree_schemes`` order (Theorem 3's assembly)."""
    tables = {v: GraphTable(v) for v in vertices}
    held = {v: table.trees.entries for v, table in tables.items()}
    for tree, scheme in tree_schemes.items():
        for v in scheme.index:
            held[v][tree] = scheme
    return tables


@dataclass(frozen=True)
class Header:
    """Message header attached during routing: O(log n) words.

    For tree routing the header is just the destination's tree label.  For
    general-graph routing the source additionally commits to a tree
    (``tree``), after which every intermediate vertex routes purely within
    that tree.
    """

    tree: TreeId
    tree_label: TreeLabel

    def word_size(self) -> int:
        return 1 + self.tree_label.word_size()


def _table_at(s: "TreeRoutingScheme", p: int) -> TreeTable:
    return TreeTable(s.enter[p], s.exit_[p], s.parent[p], s.heavy[p])


def _label_at(s: "TreeRoutingScheme", p: int) -> TreeLabel:
    ends = s.light[2 * s.light_offsets[p]:2 * s.light_offsets[p + 1]]
    return TreeLabel(s.label_enter[p], tuple(zip(ends[::2], ends[1::2])))


class _Rows(Mapping):
    """Vertex -> the object ``build`` makes of its row in ``scheme``: read
    only but for ``del``, which drops the vertex from the view (its row
    stays for the :class:`GraphTable` references that read it)."""

    __slots__ = ("_scheme", "_name", "_build")

    def __init__(self, scheme: "TreeRoutingScheme", name: str,
                 build: Callable[["TreeRoutingScheme", int], Any]) -> None:
        self._scheme, self._name, self._build = scheme, name, build

    def _index(self) -> Dict[NodeId, int]:
        return getattr(self._scheme, self._name)

    def __getitem__(self, v: NodeId) -> Any:
        return self._build(self._scheme, self._index()[v])

    def __iter__(self):
        return iter(self._index())

    def __len__(self) -> int:
        return len(self._index())

    def __contains__(self, v: object) -> bool:
        return v in self._index()

    def __delitem__(self, v: NodeId) -> None:
        self._scheme._drop(self._name, v)

    def __setitem__(self, v: NodeId, value: Any) -> None:
        raise TypeError("a tree scheme's rows are read-only: build another "
                        "with TreeRoutingScheme.from_maps")

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _light_columns(
    edge_lists: Iterable[Iterable[Tuple[NodeId, NodeId]]],
) -> Tuple[List[int], List[NodeId]]:
    edge_lists = list(edge_lists)
    return (list(accumulate(map(len, edge_lists), initial=0)),
            list(chain.from_iterable(chain.from_iterable(edge_lists))))


class TreeRoutingScheme:
    """A complete exact routing scheme for one tree, stored as columns.

    Row ``p`` of ``enter`` / ``exit_`` / ``parent`` / ``heavy`` is one
    vertex's :class:`TreeTable`; row ``p`` of the
    label columns is one vertex's :class:`TreeLabel`: ``label_enter[p]`` and
    light edges ``light_offsets[p]`` to ``light_offsets[p + 1]``, whose
    endpoints ``u0, v0, u1, v1, ...`` lie back to back in ``light``.
    ``index`` / ``label_index`` map each vertex to its row, in vertex order.
    ``tables`` and ``labels`` are read-only mapping views that build the
    object on every read, so keep what you read in a hot loop; ``==`` is
    mapping equality.

    Produced by both the centralized construction
    (:func:`repro.tz.tree_scheme.build_tree_scheme`) and the distributed one
    (:func:`repro.treerouting.scheme.build_distributed_tree_scheme`); the
    two are compared field by field in tests.  :meth:`from_maps` makes one
    from per-vertex objects.
    """

    __slots__ = ("tree_id", "root", "index", "enter", "exit_", "parent",
                 "heavy", "label_index", "label_enter",
                 "light_offsets", "light", "_rows")

    def __init__(self, tree_id: TreeId, root: NodeId, *,
                 index: Dict[NodeId, int], enter: List[int],
                 exit_: List[int], parent: List[Optional[NodeId]],
                 heavy: List[Optional[NodeId]],
                 label_index: Dict[NodeId, int], label_enter: List[int],
                 light_offsets: List[int], light: List[NodeId]) -> None:
        self.tree_id, self.root = tree_id, root
        self.index, self.enter, self.exit_ = index, enter, exit_
        self.parent, self.heavy = parent, heavy
        self.label_index, self.label_enter = label_index, label_enter
        self.light_offsets, self.light = light_offsets, light
        #: every table row, dropped ones included (what references read)
        self._rows = index

    @classmethod
    def of_tree(
        cls,
        tree_id: TreeId,
        root: NodeId,
        parent: Mapping[NodeId, Optional[NodeId]],
        heavy: Mapping[NodeId, Optional[NodeId]],
        intervals: Mapping[NodeId, Tuple[int, int]],
        light_edges: Mapping[NodeId, Iterable[Tuple[NodeId, NodeId]]],
    ) -> "TreeRoutingScheme":
        """The scheme of one rooted tree from what both builders compute
        per vertex, one row per vertex in ``parent`` order."""
        vertices = list(parent)
        spans = [intervals[v] for v in vertices]
        index = dict(zip(vertices, range(len(vertices))))
        enter = [span[0] for span in spans]
        offsets, light = _light_columns(light_edges[v] for v in vertices)
        return cls(
            tree_id, root, index=index, enter=enter,
            exit_=[span[1] for span in spans],
            parent=[parent[v] for v in vertices],
            heavy=[heavy[v] for v in vertices],
            label_index=index, label_enter=enter, light_offsets=offsets,
            light=light)

    @classmethod
    def from_maps(
        cls,
        tree_id: TreeId,
        root: NodeId,
        tables: Mapping[NodeId, TreeTable],
        labels: Mapping[NodeId, TreeLabel],
    ) -> "TreeRoutingScheme":
        """The scheme whose views equal ``tables`` and ``labels``."""
        rows, marks = list(tables.values()), list(labels.values())
        index = dict(zip(tables, range(len(rows))))
        offsets, light = _light_columns(l.light_edges for l in marks)
        return cls(
            tree_id, root, index=index, enter=[t.enter for t in rows],
            exit_=[t.exit_ for t in rows], parent=[t.parent for t in rows],
            heavy=[t.heavy for t in rows],
            label_index=(index if list(labels) == list(tables)
                         else dict(zip(labels, range(len(marks))))),
            label_enter=[l.enter for l in marks], light_offsets=offsets,
            light=light)

    @property
    def tables(self) -> Mapping[NodeId, TreeTable]:
        return _Rows(self, "index", _table_at)

    @property
    def labels(self) -> Mapping[NodeId, TreeLabel]:
        return _Rows(self, "label_index", _label_at)

    def _drop(self, index_name: str, v: NodeId) -> None:
        index = getattr(self, index_name)
        if index is self._rows:
            index = dict(index)
            setattr(self, index_name, index)
        del index[v]

    def table_of(self, v: NodeId) -> TreeTable:
        """``v``'s table row, also after ``del tables[v]``."""
        return _table_at(self, self._rows[v])

    def columns_of(self, vertices: Iterable[NodeId]) -> List[list]:
        """The ``enter``, ``exit_``, ``parent`` and ``heavy`` of
        ``vertices``' rows, as four columns."""
        rows = list(map(self._rows.__getitem__, vertices))
        return [list(map(column.__getitem__, rows)) for column in
                (self.enter, self.exit_, self.parent, self.heavy)]

    def table_words(self, v: NodeId) -> int:
        return 4

    def label_words(self, v: NodeId) -> int:
        p = self.label_index[v]
        return 1 + 2 * (self.light_offsets[p + 1] - self.light_offsets[p])

    def max_table_words(self) -> int:
        return max(map(self.table_words, self.index))

    def max_label_words(self) -> int:
        return max(map(self.label_words, self.label_index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeRoutingScheme):
            return NotImplemented
        return (self.tree_id == other.tree_id and self.root == other.root
                and self.tables == other.tables and self.labels == other.labels)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"TreeRoutingScheme(tree_id={self.tree_id!r}, "
                f"root={self.root!r}, tables={self.tables!r}, "
                f"labels={self.labels!r})")


@dataclass
class GraphRoutingScheme:
    """A complete compact routing scheme for a general graph."""

    k: int
    tables: Dict[NodeId, GraphTable]
    labels: Dict[NodeId, GraphLabel]
    tree_schemes: Dict[TreeId, TreeRoutingScheme]

    def max_table_words(self) -> int:
        return max(t.word_size() for t in self.tables.values())

    def max_label_words(self) -> int:
        return max(l.word_size() for l in self.labels.values())

    def mean_table_words(self) -> float:
        return sum(t.word_size() for t in self.tables.values()) / len(self.tables)
