"""S20 table image: packed routing tables in one shared-memory buffer.

The serve compiler (:mod:`repro.serve.compile`) already interns vertex and
tree ids to dense ints and flattens every cluster tree into parallel
``enter``/``exit``/``parent``/``heavy`` lists.  This module lowers those
lists one step further, into **typed arrays laid out in a single byte
image** that N shard workers can map read-only through
:mod:`multiprocessing.shared_memory` — one copy of the tables per host, not
per process, which is the serving-tier analogue of the paper's low-memory
budget.

Layout.  Every column is an 8-byte array (``q`` = int64, ``d`` = float64)
at an 8-aligned offset; a JSON-able *manifest* records
``{name: (offset, count, code)}`` plus the interned **id universe** (every
vertex / tree id, encoded once by the serialization codec's
:class:`~repro.routing.serialization.IdTable` -- the interner scheme JSON
uses -- so tuples, strs and ints round-trip exactly).  Optional ids are
lowered as ``-1`` and optional weights as NaN; :func:`from_buffers`
rehydrates both back to ``None`` so the engine's reference-parity checks
(``w is None`` → "not an edge") behave byte-identically.

Packing.  The writer packs every column through the stdlib :mod:`array`
module (a golden test pins the resulting bytes).  The reader hands the
engine ``memoryview.cast`` views: indexing a memoryview yields native
Python ints/floats, so the worker hot loop is type- and byte-identical to
the in-process engine.

Lifecycle.  :func:`seal_to_buffers` creates the segment (the caller owns
``unlink``); :func:`from_buffers` attaches by manifest alone — workers
never receive the packed objects themselves (``ShardPool`` rejects spawn
without shm, the one configuration that would pickle them) — and
unregisters the attach-side resource-tracker entry so only the owner
cleans up.  ``AttachedTables.close`` releases every exported view before
closing the mapping; the compiled scheme it produced must not be used
afterwards.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from multiprocessing import shared_memory
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import InputError, ReproError, ShardError
from ..routing.serialization import IdTable, decode_id, id_key
from ..serve.compile import (
    CompiledGraphScheme,
    CompiledScheme,
    CompiledTreeScheme,
    DecisionProvenance,
    PackedEntry,
    PackedLabel,
    PackedTree,
    _bunch_levels,
    _decision_table,
    _provenance_table,
)

NodeId = Hashable

#: Manifest format version (bump on any layout change).
TABLE_FORMAT = 1

#: Sentinel universe index for "no such id" (root's parent, leaf's heavy).
NO_ID = -1

_NAN = float("nan")

#: :mod:`array` type codes of the two column kinds (int64, float64).
_INT_CODE = "q"
_FLOAT_CODE = "d"


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

class _Writer:
    """Accumulates named 8-byte columns into one contiguous image."""

    def __init__(self) -> None:
        self.arrays: Dict[str, Tuple[int, int, str]] = {}
        self._chunks: List[bytes] = []
        self._offset = 0

    def add(self, name: str, code: str, values: Sequence) -> None:
        raw = array(code, values).tobytes()
        self.arrays[name] = (self._offset, len(raw) // 8, code)
        self._chunks.append(raw)
        self._offset += len(raw)

    def payload(self) -> bytes:
        return b"".join(self._chunks)


class LoweredTables:
    """A lowered image not yet backed by shared memory (testable inline)."""

    def __init__(self, manifest: Dict[str, Any], payload: bytes) -> None:
        self.manifest = manifest
        self.payload = payload

    def fingerprint(self) -> str:
        """sha256 of the image and of the manifest that gives its bytes
        meaning (id universe, scalars, column layout): the identity of
        the tables, e.g. for a warm-cache file to name what its entries
        are answers about."""
        digest = hashlib.sha256(
            json.dumps(self.manifest, sort_keys=True).encode("utf-8"))
        digest.update(self.payload)
        return digest.hexdigest()


def lower_compiled(compiled: CompiledScheme) -> LoweredTables:
    """Lower a compiled scheme into (manifest, payload bytes)."""
    uni = IdTable()
    index = uni.index
    writer = _Writer()

    if isinstance(compiled, CompiledTreeScheme):
        kind = "tree"
        trees: List[PackedTree] = [compiled.tree]
        per_target = [(v, ((0, 0, 0.0, label),))
                      for v, label in compiled.labels.items()]
        scalars: Dict[str, Any] = {
            "vertex_count": compiled.vertex_count,
            "default_budget": compiled.default_budget,
            "tree_id_u": index(compiled.tree_id),
            "root_u": (NO_ID if compiled.root is None
                       else index(compiled.root)),
        }
    elif isinstance(compiled, CompiledGraphScheme):
        kind = "graph"
        trees = compiled.trees
        per_target = [
            (v, tuple((e.level, e.tree_index, e.dist_to_root, e.label)
                      for e in packed))
            for v, packed in compiled.entries.items()
        ]
        scalars = {
            "k": compiled.k,
            "n": compiled.n,
            "default_budget": compiled.default_budget,
        }
    else:
        raise InputError(f"cannot lower {type(compiled).__name__}")

    # -- tree columns (concatenated over trees, tree_sizes slices them) -----
    t_cols: Dict[str, List] = {name: [] for name in (
        "t_ids_u", "t_enter", "t_exit", "t_parent", "t_parent_u",
        "t_heavy", "t_heavy_u")}
    t_fcols: Dict[str, List[float]] = {name: [] for name in (
        "t_parent_w", "t_heavy_w", "t_rootdist")}
    for tree in trees:
        t_cols["t_ids_u"].extend(index(v) for v in tree.ids)
        t_cols["t_enter"].extend(tree.enter)
        t_cols["t_exit"].extend(tree.exit_)
        t_cols["t_parent"].extend(tree.parent)
        t_cols["t_parent_u"].extend(
            NO_ID if v is None else index(v) for v in tree.parent_id)
        t_cols["t_heavy"].extend(tree.heavy)
        t_cols["t_heavy_u"].extend(
            NO_ID if v is None else index(v) for v in tree.heavy_id)
        t_fcols["t_parent_w"].extend(
            _NAN if w is None else float(w) for w in tree.parent_w)
        t_fcols["t_heavy_w"].extend(
            _NAN if w is None else float(w) for w in tree.heavy_w)
        t_fcols["t_rootdist"].extend(float(x) for x in tree.root_distance)

    # -- label columns (entry-offset indexed, light-offset indexed) ---------
    label_targets_u: List[int] = []
    entry_offsets = [0]
    entry_level: List[int] = []
    entry_tree: List[int] = []
    entry_enter: List[int] = []
    entry_words: List[int] = []
    entry_dist: List[float] = []
    light_offsets = [0]
    light_li: List[int] = []
    light_next_li: List[int] = []
    light_next_u: List[int] = []
    light_w: List[float] = []
    for v, entries in per_target:
        label_targets_u.append(index(v))
        for level, tree_index, dist, label in entries:
            entry_level.append(level)
            entry_tree.append(tree_index)
            entry_dist.append(float(dist))
            entry_enter.append(label.enter)
            entry_words.append(label.words)
            for li, (nli, nid, w) in label.light.items():
                light_li.append(li)
                light_next_li.append(nli)
                light_next_u.append(index(nid))
                light_w.append(_NAN if w is None else float(w))
            light_offsets.append(len(light_li))
        entry_offsets.append(len(entry_level))

    writer.add("tree_sizes", _INT_CODE, [t.size for t in trees])
    if kind == "graph":
        writer.add("tree_ids_u", _INT_CODE,
                   [index(t.tree_id) for t in trees])
        writer.add("table_ids_u", _INT_CODE,
                   [index(v) for v in sorted(compiled.table_ids, key=id_key)])
    for name, values in t_cols.items():
        writer.add(name, _INT_CODE, values)
    for name, values in t_fcols.items():
        writer.add(name, _FLOAT_CODE, values)
    writer.add("label_targets_u", _INT_CODE, label_targets_u)
    writer.add("entry_offsets", _INT_CODE, entry_offsets)
    writer.add("entry_level", _INT_CODE, entry_level)
    writer.add("entry_tree", _INT_CODE, entry_tree)
    writer.add("entry_enter", _INT_CODE, entry_enter)
    writer.add("entry_words", _INT_CODE, entry_words)
    writer.add("entry_dist", _FLOAT_CODE, entry_dist)
    writer.add("light_offsets", _INT_CODE, light_offsets)
    writer.add("light_li", _INT_CODE, light_li)
    writer.add("light_next_li", _INT_CODE, light_next_li)
    writer.add("light_next_u", _INT_CODE, light_next_u)
    writer.add("light_w", _FLOAT_CODE, light_w)

    payload = writer.payload()
    manifest = {
        "format": TABLE_FORMAT,
        "kind": kind,
        "nbytes": len(payload),
        "scalars": scalars,
        "universe": uni.encoded,
        "arrays": {name: list(spec) for name, spec in writer.arrays.items()},
    }
    return LoweredTables(manifest, payload)


# ---------------------------------------------------------------------------
# Shared-memory seal / attach
# ---------------------------------------------------------------------------

def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a spawn-started worker's resource-tracker registration.

    A spawned process runs its *own* resource tracker: attaching registers
    the segment there, and when the worker exits its tracker would warn
    about a "leaked" segment and unlink it out from under the owner.
    """
    try:  # pragma: no branch
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


class SealedTables:
    """An owned shared-memory image: the sealer closes *and* unlinks."""

    def __init__(self, manifest: Dict[str, Any],
                 shm: shared_memory.SharedMemory) -> None:
        self.manifest = manifest
        self.shm = shm
        self.name = shm.name
        self._closed = False
        self._unlinked = False

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass

    def unlink(self) -> None:
        """Destroy the segment system-wide (idempotent, crash-tolerant)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SealedTables":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
        self.unlink()


def seal_to_buffers(compiled: CompiledScheme) -> SealedTables:
    """Lower ``compiled`` and publish the image in a shared-memory segment.

    The returned :class:`SealedTables` owns the segment: callers must
    ``close()`` and ``unlink()`` it (or use it as a context manager).  Its
    ``manifest`` — a small JSON-able dict including the segment name — is
    all a worker needs to :func:`from_buffers` the tables back.
    """
    lowered = lower_compiled(compiled)
    shm = shared_memory.SharedMemory(
        create=True, size=max(1, len(lowered.payload)))
    shm.buf[:len(lowered.payload)] = lowered.payload
    manifest = dict(lowered.manifest)
    manifest["shm"] = shm.name
    return SealedTables(manifest, shm)


def _check_image(manifest: Dict[str, Any], size: int) -> None:
    """Raise :class:`ShardError` unless a ``size``-byte buffer holds the
    whole image: slicing past the end of a truncated buffer would silently
    hand the engine short columns."""
    if size < manifest["nbytes"]:
        raise ShardError(
            f"table image truncated: manifest records {manifest['nbytes']} "
            f"bytes, buffer holds {size}")
    for name, (offset, count, _code) in manifest["arrays"].items():
        if offset < 0 or count < 0 or offset + 8 * count > size:
            raise ShardError(
                f"table image truncated: array {name!r} spans bytes "
                f"{offset}..{offset + 8 * count} of a {size}-byte buffer")


class AttachedTables:
    """A compiled scheme rebuilt over zero-copy views of a table image."""

    def __init__(
        self,
        manifest: Dict[str, Any],
        buffer: Any,
        shm: Optional[shared_memory.SharedMemory] = None,
    ) -> None:
        if manifest.get("format") != TABLE_FORMAT:
            raise InputError(
                f"table image format {manifest.get('format')!r} != "
                f"{TABLE_FORMAT} (re-seal with this version)")
        with memoryview(buffer) as probe:
            _check_image(manifest, probe.nbytes)
        self.manifest = manifest
        self._shm = shm
        self._views: List[memoryview] = []
        base = memoryview(buffer)
        self._views.append(base)
        if not base.readonly:
            base = base.toreadonly()
            self._views.append(base)
        arrays: Dict[str, memoryview] = {}
        for name, (offset, count, code) in manifest["arrays"].items():
            view = base[offset:offset + 8 * count].cast(code)
            self._views.append(view)
            arrays[name] = view
        self.arrays = arrays
        # _rebuild slices per-tree windows out of the column views; every
        # slice is itself an export of the mapping and must be released
        # before the segment can close, so they register here too.
        self.compiled = _rebuild(manifest, arrays, self._views.append)
        self._closed = False

    def close(self) -> None:
        """Release every exported view, then the mapping (idempotent).

        The ``compiled`` scheme built from this image must not be used
        after close — its hot arrays point into the released buffer.
        """
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        for view in reversed(self._views):
            view.release()
        self._views = []
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - external view alive
                pass

    def __enter__(self) -> "AttachedTables":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def from_buffers(
    manifest: Dict[str, Any],
    buffer: Any = None,
    *,
    untrack: bool = False,
) -> AttachedTables:
    """Rebuild a compiled scheme from a manifest (+ optional buffer).

    With ``buffer=None`` the shared-memory segment named in the manifest is
    attached — the worker-side entry point: the manifest dict is the *only*
    thing that crosses the process boundary.  Pass an explicit
    buffer (e.g. ``LoweredTables.payload``) to rebuild without shared
    memory, which is how the differential tests run in-process.

    ``untrack=True`` drops the attach-side resource-tracker registration;
    pass it only when the attaching process runs its **own** tracker
    (e.g. a process started outside :mod:`multiprocessing`), which would
    otherwise unlink the owner's segment when the attacher exits.  Both
    fork- and spawn-started :class:`~repro.shard.pool.ShardPool` workers
    share the owner's tracker (on POSIX the tracker fd rides in spawn
    preparation data) and must leave its registration alone — the
    tracker's cache is one set per name, so an attach-side unregister
    would clobber the owner's and turn the final unlink into tracker
    noise.
    """
    if buffer is not None:
        return AttachedTables(manifest, buffer)
    name = manifest.get("shm")
    if not name:
        raise InputError("manifest has no shm segment name and no buffer "
                         "was supplied")
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise ShardError(
            f"table image segment {name!r} does not exist") from None
    if untrack:
        _untrack(shm)
    try:
        return AttachedTables(manifest, shm.buf, shm=shm)
    except ReproError:
        # Rejected before any view was built: drop the mapping.
        shm.close()
        raise


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def _rebuild(manifest: Dict[str, Any],
             arrays: Dict[str, memoryview],
             keep) -> CompiledScheme:
    universe = [decode_id(blob) for blob in manifest["universe"]]
    trees = _rebuild_trees(manifest, arrays, universe, keep)
    labels = _rebuild_labels(manifest, arrays, universe, trees)
    scalars = manifest["scalars"]

    if manifest["kind"] == "tree":
        compiled_t = object.__new__(CompiledTreeScheme)
        compiled_t.tree_id = universe[scalars["tree_id_u"]]
        root_u = scalars["root_u"]
        compiled_t.root = None if root_u == NO_ID else universe[root_u]
        compiled_t.vertex_count = scalars["vertex_count"]
        compiled_t.default_budget = scalars["default_budget"]
        compiled_t.tree = trees[0]
        compiled_t.labels = {
            target: entries[0][3] for target, entries in labels
        }
        compiled_t.nodes = list(trees[0].ids)
        compiled_t.provenance = DecisionProvenance(
            level=0, tree_id=compiled_t.tree_id, tree_index=0,
            root=compiled_t.root, dist_to_root=0.0,
            tree_size=trees[0].size, label_words=0,
        )
        return compiled_t

    compiled_g = object.__new__(CompiledGraphScheme)
    compiled_g.k = scalars["k"]
    compiled_g.n = scalars["n"]
    compiled_g.default_budget = scalars["default_budget"]
    compiled_g.table_ids = frozenset(
        universe[u] for u in arrays["table_ids_u"])
    compiled_g.tree_ids = [universe[u] for u in arrays["tree_ids_u"]]
    compiled_g.tree_index = {
        tid: i for i, tid in enumerate(compiled_g.tree_ids)}
    compiled_g.trees = trees
    compiled_g.entries = {
        target: tuple(
            PackedEntry(level=level, tree_index=ti, dist_to_root=dist,
                        label=label)
            for level, ti, dist, label in entries)
        for target, entries in labels
    }
    compiled_g.nodes = list(compiled_g.entries)
    compiled_g.decisions = _decision_table(trees, compiled_g.entries)
    compiled_g.provenance = _provenance_table(trees, compiled_g.entries)
    compiled_g.bunch_levels = _bunch_levels(compiled_g.entries)
    return compiled_g


def _rebuild_trees(
    manifest: Dict[str, Any],
    arrays: Dict[str, memoryview],
    universe: List[NodeId],
    keep,
) -> List[PackedTree]:
    sizes = list(arrays["tree_sizes"])
    if manifest["kind"] == "graph":
        tree_ids = [universe[u] for u in arrays["tree_ids_u"]]
    else:
        tree_ids = [universe[manifest["scalars"]["tree_id_u"]]]

    def window(name: str, start: int, end: int) -> memoryview:
        view = arrays[name][start:end]
        keep(view)
        return view

    trees: List[PackedTree] = []
    start = 0
    for ti, size in enumerate(sizes):
        end = start + size
        tree = PackedTree(tree_id=tree_ids[ti])
        tree.ids = [universe[u] for u in arrays["t_ids_u"][start:end]]
        tree.local = {v: i for i, v in enumerate(tree.ids)}
        # Hot integer columns stay zero-copy views into the shared image.
        tree.enter = window("t_enter", start, end)
        tree.exit_ = window("t_exit", start, end)
        tree.parent = window("t_parent", start, end)
        tree.heavy = window("t_heavy", start, end)
        tree.root_distance = window("t_rootdist", start, end)
        # Optional columns rehydrate their None sentinels (-1 / NaN): the
        # engine's edge checks compare against None, not a sentinel.
        tree.parent_id = [None if u == NO_ID else universe[u]
                          for u in arrays["t_parent_u"][start:end]]
        tree.heavy_id = [None if u == NO_ID else universe[u]
                         for u in arrays["t_heavy_u"][start:end]]
        tree.parent_w = [None if w != w else w
                         for w in arrays["t_parent_w"][start:end]]
        tree.heavy_w = [None if w != w else w
                        for w in arrays["t_heavy_w"][start:end]]
        trees.append(tree.seal())
        start = end
    return trees


def _rebuild_labels(
    manifest: Dict[str, Any],
    arrays: Dict[str, memoryview],
    universe: List[NodeId],
    trees: List[PackedTree],
) -> List[Tuple[NodeId, List[Tuple[int, int, float, PackedLabel]]]]:
    entry_offsets = arrays["entry_offsets"]
    light_offsets = arrays["light_offsets"]
    entry_level = arrays["entry_level"]
    entry_tree = arrays["entry_tree"]
    entry_enter = arrays["entry_enter"]
    entry_words = arrays["entry_words"]
    entry_dist = arrays["entry_dist"]
    light_li = arrays["light_li"]
    light_next_li = arrays["light_next_li"]
    light_next_u = arrays["light_next_u"]
    light_w = arrays["light_w"]
    out: List[Tuple[NodeId, List[Tuple[int, int, float, PackedLabel]]]] = []
    for i, target_u in enumerate(arrays["label_targets_u"]):
        entries: List[Tuple[int, int, float, PackedLabel]] = []
        for e in range(entry_offsets[i], entry_offsets[i + 1]):
            light: Dict[int, Tuple[int, NodeId, Optional[float]]] = {}
            for j in range(light_offsets[e], light_offsets[e + 1]):
                w = light_w[j]
                light[light_li[j]] = (
                    light_next_li[j],
                    universe[light_next_u[j]],
                    None if w != w else w,
                )
            entries.append((
                entry_level[e], entry_tree[e], entry_dist[e],
                PackedLabel(enter=entry_enter[e], light=light,
                            words=entry_words[e]),
            ))
        out.append((universe[target_u], entries))
    return out
