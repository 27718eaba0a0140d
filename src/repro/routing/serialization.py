"""JSON (de)serialization of routing schemes.

The preprocessing phase is expensive; routers only need the artifacts.
This module round-trips :class:`~repro.routing.artifacts.TreeRoutingScheme`
and :class:`~repro.routing.artifacts.GraphRoutingScheme` through plain JSON
so schemes can be built once and shipped to the vertices (or to disk).

Vertex and tree ids may be ints, floats, strings, ``None``, booleans, or
(possibly nested) tuples of those -- everything the library's constructions
produce.  JSON cannot carry such values as they are, so an id is encoded
as a one-element tag object (``{"i": 5}``, ``{"s": "v"}``, ``{"t": [...]}``;
:func:`encode_id`) -- **once**: an :class:`IdTable` interns every distinct
id of a scheme into the top-level ``"ids"`` list and everything else
refers to it by position.

Format 4 (``FORMAT_VERSION``).  ``v`` / ``tree`` / ``parent`` / ``heavy`` /
light-edge endpoints are indices into ``"ids"`` (``null`` for "no parent" /
"no heavy child").  A tree scheme's maps are parallel **columns**, one
position per vertex -- the columns a
:class:`~repro.routing.artifacts.TreeRoutingScheme` holds -- and a graph
scheme carries every tree table and tree label **once**, under
``"tree_schemes"``: a vertex's table lists the trees it holds a table for,
a label entry its ``[tree, dist]``, and the decoder makes the table entries
references to the tree scheme's rows -- the sharing the builders create --
and reads the label entries off its label columns.  An entry that is *not*
its tree scheme's (a different value, or a tree / vertex the tree schemes
lack) is written in full, and told apart by shape.  Indices, ``enter`` /
``exit`` and light-edge counts are JSON integers, distances numbers::

    tree tables       [[v, ...], [enter, ...], [exit, ...], [parent, ...],
                       [heavy, ...]]
    tree labels       [[v, ...], [enter, ...], [light-edge count, ...],
                       [u0, v0, u1, v1, ...]]   # all light edges, back to back
    tree scheme       {"format": 4, "kind": "tree", "ids": [...],
                       "tree_id": i, "root": i,
                       "tables": tree tables, "labels": tree labels}
    table entry       tree
                      | [tree, enter, exit, parent, heavy]
    label entry       null | [tree, dist]
                      | [tree, dist, enter, [u0, v0, ...]]
    graph scheme      {"format": 4, "kind": "graph", "k": k, "ids": [...],
                       "tree_schemes": [[tree, {"tree_id", "root",
                                                "tables", "labels"}], ...],
                       "tables": [[v, [table entry, ...]], ...],
                       "labels": [[v, [label entry, ...]], ...]}

There is one format and one reader: a file of an earlier format is an
:class:`~repro.errors.InputError` that says to re-save it.

Round-trip identity (``load(save(s)) == s``) is property-tested in
``tests/test_routing_serialization.py``, which also pins the format with
a literal golden blob.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import (
    IO,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import InputError
from .artifacts import (
    GraphLabel,
    GraphRoutingScheme,
    GraphTable,
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
    TreeTables,
)

NodeId = Hashable
TreeId = Hashable

FORMAT_VERSION = 4


# ---------------------------------------------------------------------------
# Id encoding
# ---------------------------------------------------------------------------

def encode_id(value: Any) -> Any:
    """Wrap an id so JSON round-trips preserve its type."""
    if value is None or isinstance(value, bool):
        return {"b": value}
    if isinstance(value, int):
        return {"i": value}
    if isinstance(value, float):
        return {"f": value}
    if isinstance(value, str):
        return {"s": value}
    if isinstance(value, tuple):
        return {"t": [encode_id(x) for x in value]}
    raise InputError(f"cannot serialize id of type {type(value).__name__}")


#: tag -> the exact types its value may have (``bool`` is an ``int``
#: subclass, so the test is on ``type``, not ``isinstance``)
_ID_VALUE_TYPES = {
    "b": (bool, type(None)), "i": (int,), "f": (float,), "s": (str,),
    "t": (list,),
}


def decode_id(blob: Any) -> Any:
    if not isinstance(blob, dict) or len(blob) != 1:
        raise InputError(f"malformed id blob: {blob!r}")
    (tag, value), = blob.items()
    allowed = _ID_VALUE_TYPES.get(tag)
    if allowed is None:
        raise InputError(f"unknown id tag {tag!r}")
    if type(value) not in allowed:
        raise InputError(
            f"id tag {tag!r} cannot carry a {type(value).__name__}: {blob!r}")
    return tuple(map(decode_id, value)) if tag == "t" else value


def id_key(value: Any) -> str:
    """The JSON text of an id's encoded form: equal exactly when two ids
    are the same id on the wire, and a deterministic sort key for id sets
    of mixed type."""
    return json.dumps(encode_id(value))


class IdTable:
    """Dense interning of ids: each distinct id is encoded once and
    referred to by its index, assigned in first-seen order.

    Ids are told apart by their *encoded* form (:func:`id_key`), not by
    ``==``: ``1``, ``1.0``, ``True`` and ``"1"`` compare or hash alike as
    dict keys but are four ids.  Exact ``int`` and ``str`` values -- what
    almost every scheme carries -- cannot be confused with one another,
    so they are looked up by value and their key is never built.
    """

    def __init__(self) -> None:
        #: ``encode_id`` blob of every interned id, by index
        self.encoded: List[Any] = []
        self._exact: Dict[Any, int] = {}
        self._keyed: Dict[str, int] = {}

    def index(self, value: NodeId) -> int:
        cls = type(value)
        if cls is int or cls is str:
            known, key = self._exact, value
        else:
            known, key = self._keyed, id_key(value)
        idx = known.get(key)
        if idx is None:
            idx = known[key] = len(self.encoded)
            self.encoded.append(encode_id(value))
        return idx


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _tree_table_row(ids: IdTable, key: NodeId, table: TreeTable) -> List[Any]:
    parent, heavy = table.parent, table.heavy
    return [
        ids.index(key), table.enter, table.exit_,
        None if parent is None else ids.index(parent),
        None if heavy is None else ids.index(heavy),
    ]


def _tree_body(ids: IdTable, scheme: TreeRoutingScheme) -> Dict[str, Any]:
    index = ids.index
    vertices = list(scheme.index)
    enter, exit_, parent, heavy = scheme.columns_of(vertices)
    rows = list(scheme.label_index.values())
    offsets, light = scheme.light_offsets, scheme.light
    return {
        "tree_id": index(scheme.tree_id),
        "root": index(scheme.root),
        "tables": [
            list(map(index, vertices)), enter, exit_,
            [None if v is None else index(v) for v in parent],
            [None if v is None else index(v) for v in heavy],
        ],
        "labels": [
            list(map(index, scheme.label_index)),
            [scheme.label_enter[p] for p in rows],
            [offsets[p + 1] - offsets[p] for p in rows],
            [index(x) for p in rows
             for x in light[2 * offsets[p]:2 * offsets[p + 1]]],
        ],
    }


def tree_scheme_to_dict(scheme: TreeRoutingScheme) -> Dict[str, Any]:
    ids = IdTable()
    body = _tree_body(ids, scheme)
    return {"format": FORMAT_VERSION, "kind": "tree", "ids": ids.encoded, **body}


def graph_scheme_to_dict(scheme: GraphRoutingScheme) -> Dict[str, Any]:
    ids = IdTable()
    index = ids.index
    shared = scheme.tree_schemes
    tree_schemes = [[index(t), _tree_body(ids, s)] for t, s in shared.items()]

    # An entry is written by reference exactly when the decoder's rebinding
    # gives it back: it refers to, or equals, what its tree scheme holds
    # for v.
    def table_entry(v: NodeId, tree: TreeId, trees: TreeTables) -> Any:
        held = shared.get(tree)
        if held is not None and v in held.index and (
                trees.entries[tree] is held or trees[tree] == held.tables[v]):
            return index(tree)
        return _tree_table_row(ids, tree, trees[tree])

    def label_entry(
        v: NodeId, entry: Optional[Tuple[TreeId, float, TreeLabel]],
    ) -> Optional[List[Any]]:
        if entry is None:
            return None
        tree, dist, label = entry
        held = shared[tree].labels.get(v) if tree in shared else None
        if held == label:
            return [index(tree), dist]
        return [index(tree), dist, label.enter,
                [index(x) for edge in label.light_edges for x in edge]]

    tables = [
        [index(v), [table_entry(v, t, table.trees) for t in table.trees]]
        for v, table in scheme.tables.items()
    ]
    labels = [
        [index(v), [label_entry(v, e) for e in label.entries]]
        for v, label in scheme.labels.items()
    ]
    return {
        "format": FORMAT_VERSION,
        "kind": "graph",
        "k": scheme.k,
        "ids": ids.encoded,
        "tree_schemes": tree_schemes,
        "tables": tables,
        "labels": labels,
    }


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

@contextmanager
def _section(name: str) -> Iterator[None]:
    """Whatever unpacking the named section raises -- a missing key, a
    column or row of the wrong arity or type, an id index outside the
    universe -- is an :class:`InputError` that names it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            f"malformed scheme section {name!r}: {exc!r}") from exc


class _Ids:
    """The decoded ``"ids"`` universe of one blob.

    Both maps are dicts keyed by index, not the list itself: a negative
    index into a list silently aliases an id from the other end, here it
    is a ``KeyError`` like any other index outside the universe (or a
    ``null`` where an id is required).  ``opt`` also maps ``None`` to
    ``None`` (parent / heavy).  A ``bool`` would find index 0 or 1 in
    either, so indices are type-checked before any lookup.
    """

    def __init__(self, blob: Dict[str, Any]) -> None:
        with _section("ids"):
            encoded = list(blob["ids"])
        try:
            self.at: Dict[Any, NodeId] = dict(
                enumerate(map(decode_id, encoded)))
        except InputError as exc:
            raise InputError(f"malformed scheme section 'ids': {exc}") from exc
        self.opt: Dict[Any, Optional[NodeId]] = {None: None, **self.at}

    def id(self, index: Any) -> NodeId:
        if type(index) is not int:
            raise TypeError(f"id index {index!r} is not an int")
        return self.at[index]


def _aligned(*columns: Any) -> None:
    """Parallel columns are lists of one length."""
    if any(type(column) is not list for column in columns):
        raise TypeError("a column is not a list")
    lengths = [len(column) for column in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"columns of unequal lengths {lengths}")


_INT = frozenset({int})
_OPT_INT = _INT | {type(None)}
_NUMBER = frozenset({int, float})
#: a table entry written in full: tree, enter, exit, parent, heavy
_TABLE_ROW = (_INT, _INT, _INT, _OPT_INT, _OPT_INT)


def _typed(values: Iterable[Any], *allowed: frozenset) -> None:
    """Every element of ``values`` has one of the exact types ``allowed``
    -- one set for all elements, or one per position (``bool`` is not an
    ``int`` here)."""
    if len(allowed) == 1:
        found = set(map(type, values)) - allowed[0]
    elif len(values) != len(allowed):
        raise ValueError(f"{len(values)} fields where {len(allowed)} belong")
    else:
        found = {type(x) for x, ok in zip(values, allowed) if type(x) not in ok}
    if found:
        raise TypeError("unexpected value type " + ", ".join(
            sorted(cls.__name__ for cls in found)))


def _tree_scheme(ids: _Ids, body: Dict[str, Any], where: str = "") -> TreeRoutingScheme:
    at, opt = ids.at.__getitem__, ids.opt.__getitem__
    with _section(where + "tree_id"):
        tree_id = ids.id(body["tree_id"])
    with _section(where + "root"):
        root = ids.id(body["root"])
    with _section(where + "tables"):
        vs, enters, exits, parents, heavies = columns = body["tables"]
        _aligned(*columns)
        _typed(chain(vs, enters, exits), _INT)
        _typed(chain(parents, heavies), _OPT_INT)
        index = dict(zip(map(at, vs), range(len(vs))))
        parents, heavies = list(map(opt, parents)), list(map(opt, heavies))
    with _section(where + "labels"):
        label_vs, label_enters, counts, light = body["labels"]
        _aligned(label_vs, label_enters, counts)
        _aligned(light)
        _typed(chain(label_vs, label_enters, counts, light), _INT)
        if min(counts, default=0) < 0:
            raise ValueError("a negative light-edge count")
        offsets = list(accumulate(counts, initial=0))
        if len(light) != 2 * offsets[-1]:
            raise ValueError(
                f"{len(light)} light-edge endpoints for {offsets[-1]} edges")
        label_index = (index if label_vs == vs else
                       dict(zip(map(at, label_vs), range(len(label_vs)))))
        light = list(map(at, light))
    return TreeRoutingScheme(
        tree_id, root, index=index, enter=list(enters), exit_=list(exits),
        parent=parents, heavy=heavies, label_index=label_index,
        label_enter=list(label_enters), light_offsets=offsets, light=light)


def tree_scheme_from_dict(blob: Dict[str, Any]) -> TreeRoutingScheme:
    _check_header(blob, "tree")
    return _tree_scheme(_Ids(blob), blob)


def graph_scheme_from_dict(blob: Dict[str, Any]) -> GraphRoutingScheme:
    """Decode a graph scheme: its tree schemes stay columns, and a vertex's
    table entries written by reference are references to them."""
    _check_header(blob, "graph")
    ids = _Ids(blob)
    at, opt = ids.at, ids.opt
    with _section("k"):
        k = blob["k"]
        _typed([k], _INT)
        if k < 1:
            raise ValueError(f"k = {k} is below 1")
    tree_schemes: Dict[TreeId, TreeRoutingScheme] = {}
    with _section("tree_schemes"):
        for t, body in blob["tree_schemes"]:
            tree_schemes[ids.id(t)] = _tree_scheme(ids, body, "tree_schemes/")

    def label_entry(
        v: NodeId, entry: Optional[List[Any]],
    ) -> Optional[Tuple[TreeId, float, TreeLabel]]:
        if entry is None:
            return None
        if len(entry) == 2:
            _typed(entry, _INT, _NUMBER)
            tree, dist = at[entry[0]], entry[1]
            return tree, dist, tree_schemes[tree].labels[v]
        _typed(entry, _INT, _NUMBER, _INT, frozenset({list}))
        tree, dist, enter, light = entry
        _typed(light, _INT)
        if len(light) % 2:
            raise ValueError(f"light list of odd length {len(light)}")
        ends = map(at.__getitem__, light)
        return at[tree], dist, TreeLabel(enter, tuple(zip(ends, ends)))

    tables: Dict[NodeId, GraphTable] = {}
    with _section("tables"):
        for v_index, entries in blob["tables"]:
            v = ids.id(v_index)
            tables[v] = table = GraphTable(v)
            held = table.trees.entries
            for entry in entries:
                if type(entry) is int:
                    tree = at[entry]
                    held[tree] = scheme = tree_schemes[tree]
                    if v not in scheme.index:
                        raise KeyError(f"{v!r} has no row in tree {tree!r}")
                else:
                    _typed(entry, *_TABLE_ROW)
                    tree, enter, exit_, parent, heavy = entry
                    held[at[tree]] = TreeTable(enter, exit_, opt[parent],
                                               opt[heavy])
    labels: Dict[NodeId, GraphLabel] = {}
    with _section("labels"):
        for v_index, entries in blob["labels"]:
            v = ids.id(v_index)
            labels[v] = GraphLabel(
                vertex=v, entries=tuple(label_entry(v, e) for e in entries))
    return GraphRoutingScheme(
        k=k, tables=tables, labels=labels, tree_schemes=tree_schemes)


def _check_header(blob: Any, kind: Optional[str] = None) -> None:
    if not isinstance(blob, dict):
        raise InputError(
            f"malformed scheme header: expected a JSON object, found a "
            f"{type(blob).__name__}")
    if blob.get("format") != FORMAT_VERSION:
        raise InputError(
            f"unsupported scheme format {blob.get('format')!r} in the header: "
            f"this library reads version {FORMAT_VERSION} only (re-save the "
            "scheme with this version)")
    if kind is not None and blob.get("kind") != kind:
        raise InputError(
            f"scheme header: expected a {kind!r} scheme, found "
            f"{blob.get('kind')!r}")


# ---------------------------------------------------------------------------
# File convenience
# ---------------------------------------------------------------------------

Scheme = Union[TreeRoutingScheme, GraphRoutingScheme]


def save_scheme(scheme: Scheme, fp: IO[str]) -> None:
    """Write a scheme as JSON to an open text file."""
    if isinstance(scheme, TreeRoutingScheme):
        blob = tree_scheme_to_dict(scheme)
    elif isinstance(scheme, GraphRoutingScheme):
        blob = graph_scheme_to_dict(scheme)
    else:
        raise InputError(f"cannot serialize {type(scheme).__name__}")
    # json.dump streams through the pure-Python encoder; dumps is the C one.
    fp.write(json.dumps(blob))


def load_scheme(fp: IO[str]) -> Scheme:
    """Read back a scheme written by :func:`save_scheme`."""
    try:
        blob = json.load(fp)
    except ValueError as exc:  # JSONDecodeError: truncated, not JSON
        raise InputError(f"scheme text is not valid JSON: {exc}") from exc
    _check_header(blob)
    kind = blob.get("kind")
    if kind == "tree":
        return tree_scheme_from_dict(blob)
    if kind == "graph":
        return graph_scheme_from_dict(blob)
    raise InputError(f"scheme header: unknown scheme kind {kind!r}")
