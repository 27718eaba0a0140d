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

Format 3 (``FORMAT_VERSION``).  ``v`` / ``tree`` / ``parent`` / ``heavy`` /
light-edge endpoints are indices into ``"ids"`` (``null`` for "no parent" /
"no heavy child").  A tree scheme's maps are parallel **columns**, one
position per vertex, and a graph scheme carries every tree table and tree
label **once**, under ``"tree_schemes"``: a vertex's table lists the trees
it holds a table for, a label entry its ``[tree, dist]``, and the decoder
rebinds both to the tree scheme's own objects -- the sharing the builders
create.  An entry that is *not* its tree scheme's (a different value, or a
tree / vertex the tree schemes lack) is written in full, and told apart
by shape::

    tree tables       [[v, ...], [enter, ...], [exit, ...], [parent, ...],
                       [heavy, ...], [root_distance, ...]]
    tree labels       [[v, ...], [enter, ...], [light-edge count, ...],
                       [u0, v0, u1, v1, ...]]   # all light edges, back to back
    tree scheme       {"format": 3, "kind": "tree", "ids": [...],
                       "tree_id": i, "root": i,
                       "tables": tree tables, "labels": tree labels}
    table entry       tree
                      | [tree, enter, exit, parent, heavy, root_distance]
    label entry       null | [tree, dist]
                      | [tree, dist, enter, [u0, v0, ...]]
    graph scheme      {"format": 3, "kind": "graph", "k": k, "ids": [...],
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
from itertools import islice
from typing import (
    IO,
    Any,
    Dict,
    Hashable,
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
)

NodeId = Hashable
TreeId = Hashable

FORMAT_VERSION = 3


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
        table.root_distance,
    ]


def _tree_body(ids: IdTable, scheme: TreeRoutingScheme) -> Dict[str, Any]:
    index = ids.index
    tables = scheme.tables.values()
    labels = scheme.labels.values()
    return {
        "tree_id": index(scheme.tree_id),
        "root": index(scheme.root),
        "tables": [
            [index(v) for v in scheme.tables],
            [t.enter for t in tables],
            [t.exit_ for t in tables],
            [None if t.parent is None else index(t.parent) for t in tables],
            [None if t.heavy is None else index(t.heavy) for t in tables],
            [t.root_distance for t in tables],
        ],
        "labels": [
            [index(v) for v in scheme.labels],
            [l.enter for l in labels],
            [len(l.light_edges) for l in labels],
            [index(x) for l in labels for edge in l.light_edges for x in edge],
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
    # gives it back: it is (or equals) what its tree scheme holds for v.
    def table_entry(v: NodeId, tree: TreeId, table: TreeTable) -> Any:
        held = shared[tree].tables.get(v) if tree in shared else None
        if held is table or held == table:
            return index(tree)
        return _tree_table_row(ids, tree, table)

    def label_entry(
        v: NodeId, entry: Optional[Tuple[TreeId, float, TreeLabel]],
    ) -> Optional[List[Any]]:
        if entry is None:
            return None
        tree, dist, label = entry
        held = shared[tree].labels.get(v) if tree in shared else None
        if held is label or held == label:
            return [index(tree), dist]
        return [index(tree), dist, label.enter,
                [index(x) for edge in label.light_edges for x in edge]]

    tables = [
        [index(v), [table_entry(v, t, tt) for t, tt in table.trees.items()]]
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
    ``None`` (parent / heavy).
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


def _aligned(*columns: Any) -> None:
    """Parallel columns are lists of one length."""
    if any(type(column) is not list for column in columns):
        raise TypeError("a column is not a list")
    lengths = [len(column) for column in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"columns of unequal lengths {lengths}")


def _tree_table(ids: _Ids, row: List[Any]) -> Tuple[NodeId, TreeTable]:
    key, enter, exit_, parent, heavy, root_distance = row
    return ids.at[key], TreeTable(
        enter=enter, exit_=exit_, parent=ids.opt[parent],
        heavy=ids.opt[heavy], root_distance=root_distance)


def _tree_label(ids: _Ids, enter: int, light: List[int]) -> TreeLabel:
    if len(light) % 2:
        raise ValueError(f"light list of odd length {len(light)}")
    ends = map(ids.at.__getitem__, light)
    return TreeLabel(enter=enter, light_edges=tuple(zip(ends, ends)))


def _tree_scheme(ids: _Ids, body: Dict[str, Any], where: str = "") -> TreeRoutingScheme:
    at, opt = ids.at.__getitem__, ids.opt.__getitem__
    with _section(where + "tree_id"):
        tree_id = at(body["tree_id"])
    with _section(where + "root"):
        root = at(body["root"])
    with _section(where + "tables"):
        vs, enters, exits, parents, heavies, dists = body["tables"]
        _aligned(vs, enters, exits, parents, heavies, dists)
        tables = dict(zip(map(at, vs), map(
            TreeTable, enters, exits, map(opt, parents), map(opt, heavies),
            dists)))
    with _section(where + "labels"):
        vs, enters, counts, light = body["labels"]
        _aligned(vs, enters, counts)
        if len(light) != 2 * sum(counts):
            raise ValueError(
                f"{len(light)} light-edge endpoints for {sum(counts)} edges")
        ends = map(at, light)
        edges = zip(ends, ends)
        # islice refuses a negative count, so the edges come out exactly
        labels = {
            at(v): TreeLabel(enter, tuple(islice(edges, count)))
            for v, enter, count in zip(vs, enters, counts)
        }
    return TreeRoutingScheme(tree_id=tree_id, root=root, tables=tables,
                             labels=labels)


def tree_scheme_from_dict(blob: Dict[str, Any]) -> TreeRoutingScheme:
    _check_header(blob, "tree")
    return _tree_scheme(_Ids(blob), blob)


def graph_scheme_from_dict(blob: Dict[str, Any]) -> GraphRoutingScheme:
    _check_header(blob, "graph")
    ids = _Ids(blob)
    at = ids.at
    with _section("k"):
        k = blob["k"]
    with _section("tree_schemes"):
        tree_schemes = {
            at[t]: _tree_scheme(ids, body, "tree_schemes/")
            for t, body in blob["tree_schemes"]
        }

    def table_entry(v: NodeId, entry: Any) -> Tuple[TreeId, TreeTable]:
        if isinstance(entry, list):
            return _tree_table(ids, entry)
        tree = at[entry]
        return tree, tree_schemes[tree].tables[v]

    def label_entry(
        v: NodeId, entry: Optional[List[Any]],
    ) -> Optional[Tuple[TreeId, float, TreeLabel]]:
        if entry is None:
            return None
        if len(entry) == 2:
            tree, dist = at[entry[0]], entry[1]
            return tree, dist, tree_schemes[tree].labels[v]
        tree, dist, enter, light = entry
        return at[tree], dist, _tree_label(ids, enter, light)

    tables: Dict[NodeId, GraphTable] = {}
    with _section("tables"):
        for v_index, entries in blob["tables"]:
            v = at[v_index]
            tables[v] = GraphTable(
                vertex=v, trees=dict(table_entry(v, e) for e in entries))
    labels: Dict[NodeId, GraphLabel] = {}
    with _section("labels"):
        for v_index, entries in blob["labels"]:
            v = at[v_index]
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
