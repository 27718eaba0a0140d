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

Format 2 (``FORMAT_VERSION``).  Maps are row lists, rows are positional,
``v`` / ``tree`` / ``parent`` / ``heavy`` / light-edge endpoints are
indices into ``"ids"`` (``null`` for "no parent" / "no heavy child")::

    tree table row    [v, enter, exit, parent, heavy, root_distance]
    tree label row    [v, enter, [u0, v0, u1, v1, ...]]   # light edges, flat
    tree scheme       {"format": 2, "kind": "tree", "ids": [...],
                       "tree_id": i, "root": i,
                       "tables": [row, ...], "labels": [row, ...]}
    graph scheme      {"format": 2, "kind": "graph", "k": k, "ids": [...],
                       "tables": [[v, [tree table row keyed by tree, ...]], ...],
                       "labels": [[v, [null | [tree, dist, enter, light], ...]], ...],
                       "tree_schemes": [[tree, {"tree_id", "root",
                                                "tables", "labels"}], ...]}

Round-trip identity (``load(save(s)) == s``) is property-tested in
``tests/test_routing_serialization.py``, which also pins the format with
a literal golden blob.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
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

FORMAT_VERSION = 2


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


def decode_id(blob: Any) -> Any:
    if not isinstance(blob, dict) or len(blob) != 1:
        raise InputError(f"malformed id blob: {blob!r}")
    tag, value = next(iter(blob.items()))
    if tag in ("b", "i", "f", "s"):
        return value
    if tag == "t":
        return tuple(decode_id(x) for x in value)
    raise InputError(f"unknown id tag {tag!r}")


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


def _light(ids: IdTable, label: TreeLabel) -> List[int]:
    index = ids.index
    return [index(x) for edge in label.light_edges for x in edge]


def _graph_label_entry_row(
    ids: IdTable, entry: Optional[Tuple[NodeId, float, TreeLabel]],
) -> Optional[List[Any]]:
    if entry is None:
        return None
    tree, dist, label = entry
    return [ids.index(tree), dist, label.enter, _light(ids, label)]


def _tree_body(ids: IdTable, scheme: TreeRoutingScheme) -> Dict[str, Any]:
    return {
        "tree_id": ids.index(scheme.tree_id),
        "root": ids.index(scheme.root),
        "tables": [_tree_table_row(ids, v, t) for v, t in scheme.tables.items()],
        "labels": [[ids.index(v), l.enter, _light(ids, l)]
                   for v, l in scheme.labels.items()],
    }


def tree_scheme_to_dict(scheme: TreeRoutingScheme) -> Dict[str, Any]:
    ids = IdTable()
    body = _tree_body(ids, scheme)
    return {"format": FORMAT_VERSION, "kind": "tree", "ids": ids.encoded, **body}


def graph_scheme_to_dict(scheme: GraphRoutingScheme) -> Dict[str, Any]:
    ids = IdTable()
    tables = [
        [ids.index(v),
         [_tree_table_row(ids, t, tt) for t, tt in table.trees.items()]]
        for v, table in scheme.tables.items()
    ]
    labels = [
        [ids.index(v), [_graph_label_entry_row(ids, e) for e in label.entries]]
        for v, label in scheme.labels.items()
    ]
    tree_schemes = [[ids.index(t), _tree_body(ids, s)]
                    for t, s in scheme.tree_schemes.items()]
    return {
        "format": FORMAT_VERSION,
        "kind": "graph",
        "k": scheme.k,
        "ids": ids.encoded,
        "tables": tables,
        "labels": labels,
        "tree_schemes": tree_schemes,
    }


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

@contextmanager
def _section(name: str) -> Iterator[None]:
    """Whatever unpacking the named section raises -- a missing key, a row
    of the wrong arity or type, an id index outside the universe -- is an
    :class:`InputError` that names it."""
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
            self.at: Dict[Any, NodeId] = dict(
                enumerate(decode_id(x) for x in blob["ids"]))
        self.opt: Dict[Any, Optional[NodeId]] = {None: None, **self.at}


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


def _graph_label_entry(
    ids: _Ids, entry: Optional[List[Any]],
) -> Optional[Tuple[NodeId, float, TreeLabel]]:
    if entry is None:
        return None
    tree, dist, enter, light = entry
    return ids.at[tree], dist, _tree_label(ids, enter, light)


def _tree_scheme(ids: _Ids, body: Dict[str, Any], where: str = "") -> TreeRoutingScheme:
    with _section(where + "tree_id"):
        tree_id = ids.at[body["tree_id"]]
    with _section(where + "root"):
        root = ids.at[body["root"]]
    with _section(where + "tables"):
        tables = dict(_tree_table(ids, row) for row in body["tables"])
    with _section(where + "labels"):
        labels = {ids.at[v]: _tree_label(ids, enter, light)
                  for v, enter, light in body["labels"]}
    return TreeRoutingScheme(tree_id=tree_id, root=root, tables=tables,
                             labels=labels)


def tree_scheme_from_dict(blob: Dict[str, Any]) -> TreeRoutingScheme:
    _check_header(blob, "tree")
    return _tree_scheme(_Ids(blob), blob)


def graph_scheme_from_dict(blob: Dict[str, Any]) -> GraphRoutingScheme:
    _check_header(blob, "graph")
    ids = _Ids(blob)
    with _section("k"):
        k = blob["k"]
    tables: Dict[NodeId, GraphTable] = {}
    with _section("tables"):
        for v_index, rows in blob["tables"]:
            v = ids.at[v_index]
            tables[v] = GraphTable(
                vertex=v, trees=dict(_tree_table(ids, row) for row in rows))
    labels: Dict[NodeId, GraphLabel] = {}
    with _section("labels"):
        for v_index, entries in blob["labels"]:
            v = ids.at[v_index]
            labels[v] = GraphLabel(vertex=v, entries=tuple(
                _graph_label_entry(ids, entry) for entry in entries))
    with _section("tree_schemes"):
        tree_schemes = {
            ids.at[t]: _tree_scheme(ids, body, "tree_schemes/")
            for t, body in blob["tree_schemes"]
        }
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
