"""Per-vertex memory accounting.

The paper's headline contribution is the *individual memory requirement*
during preprocessing (Tables 1-2 report "Memory per vertex").  To measure it
honestly, every vertex of the simulated network has a meter
(``net.mem(v)``); distributed algorithms register every word they retain
across rounds through it, and the meter tracks the high-water mark.
Benchmarks report ``max`` / ``mean`` high-water over vertices.

Conventions used across the library:

* Keys are strings namespaced by protocol stage, e.g. ``"tree/ancestors"``.
* Storing an existing key *replaces* its footprint (the common "update my
  distance estimate in place" pattern keeps a constant footprint).
* Words in flight inside a single round (the message being forwarded right
  now) are *not* charged -- matching the model, where relaying is free of
  storage as long as nothing is retained between rounds.  Relay queues that
  persist across rounds (pipelined broadcast buffers) ARE charged, under the
  ``"relay/"`` prefix, and can be reported separately.

Network-level accounting: the column bank
-----------------------------------------
A :class:`MemoryBank` is the one memory record of a whole network, stored
by key rather than by vertex:

* a per-vertex key has one *column* ``{vertex index: words}`` listing the
  vertices that retain it; a key no vertex retains has no column;
* a key stored at *every* vertex with one size (``Network.store_all``) is a
  single *uniform* entry; the uniform sizes add up to the uniform total;
* int lists indexed by vertex hold its column sum (``current``), its
  high-water mark (``high``) and the epoch that mark is settled at.

The bank is written only through the network's bulk calls:
``Network.store_each`` stores one key at many vertices, ``add_each`` grows
it at a list of them (a vertex listed twice grows twice), ``store_all``
stores it at every vertex, ``free_key`` drops one column or uniform entry
and ``free_all`` drops every key under a prefix, key by key.
``Network.mem(v)`` is a read-only :class:`MeterView`, two slots (bank,
index) made once per vertex.  Every reading is derived exactly:

* ``current`` is the vertex's column sum plus the uniform total;
* the high-water mark is *settled lazily*.  Between two touches of a vertex
  its column sum is constant, so the peak it reached in between is that sum
  plus the largest uniform total since it last settled, which the bank
  answers from a monotone stack of ``(epoch, total)`` peaks;
* a ``store_each`` or ``add_each`` on a uniform key first *demotes* it into
  a full column, so a key is never uniform and per-vertex at once;
* the network-wide peak (``Network.max_memory()``) is kept eagerly, so
  reading it settles nothing: ``store_each`` raises it to the most any
  vertex of its batch holds, and a growing ``store_all`` to the largest
  column sum plus the new uniform total.  Frees and demotion never raise
  what any vertex holds.  That largest column sum is O(n) to find, so the
  bank keeps an upper bound on it (``ceiling``, raised wherever a column
  sum grows) and a ``store_all`` whose bound cannot beat the peak skips
  the search.

What needs one vertex's key set (``items()``, ``snapshot()``) scans the
live keys for the columns holding it; the flight recorder reads
``Network.memory_by_group`` (column sums) instead.  A standalone
:class:`MemoryMeter` keeps one vertex's entries eagerly in a dict:
``ReferenceNetwork`` owns one per vertex and loops over them in each bulk
call, the executable specification the bank is certified against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..errors import MemoryAccountingError


def _group_of(key: str) -> str:
    """The snapshot group of ``key``: its first slash segment (incl. the
    slash), or the whole key when it has none."""
    head, sep, _ = key.partition("/")
    return head + "/" if sep else head


def _check_words(key: str, words: int) -> None:
    if words < 0:
        raise MemoryAccountingError(f"negative store of {words} words for {key!r}")


def _breakdown(items: Iterable[Tuple[str, int]], prefix: Optional[str]) -> Dict[str, int]:
    """:meth:`MemoryMeter.snapshot` of a vertex whose entries are ``items``."""
    out: Dict[str, int] = {}
    for key, words in items:
        if prefix is None:
            group = _group_of(key)
            out[group] = out.get(group, 0) + words
        elif key.startswith(prefix):
            out[key] = words
    return out


class MemoryMeter:
    """Tracks the words a single vertex retains, with a high-water mark.

    Eager, one dict per vertex: the specification the network's column bank
    (:class:`MeterView`) is certified against.
    """

    __slots__ = ("_items", "_current", "_high_water")

    def __init__(self) -> None:
        self._items: Dict[str, int] = {}
        self._current = 0
        self._high_water = 0

    # -- mutation -----------------------------------------------------------

    def store(self, key: str, words: int) -> None:
        """Record that this vertex now retains ``words`` words under ``key``.

        Re-storing a key replaces its previous footprint.
        """
        _check_words(key, words)
        self._current += words - self._items.get(key, 0)
        self._items[key] = words
        if self._current > self._high_water:
            self._high_water = self._current

    def add(self, key: str, words: int) -> None:
        """Grow the footprint under ``key`` by ``words`` (list-append
        pattern); a negative growth raises, as a negative store does."""
        _check_words(key, words)
        self.store(key, self._items.get(key, 0) + words)

    def free(self, key: str) -> None:
        """Release everything stored under ``key``.

        Freeing an absent key is a no-op: stages free their scratch space
        unconditionally on exit.
        """
        self._current -= self._items.pop(key, 0)

    def free_prefix(self, prefix: str) -> None:
        """Release every key starting with ``prefix`` (stage teardown)."""
        for key in [key for key in self._items if key.startswith(prefix)]:
            self._current -= self._items.pop(key)

    # -- inspection ----------------------------------------------------------

    @property
    def current(self) -> int:
        """Words currently retained."""
        return self._current

    @property
    def high_water(self) -> int:
        """Maximum words ever retained simultaneously."""
        return self._high_water

    def high_water_excluding(self, prefix: str) -> int:
        """High-water is global; this helper reports the *current* footprint
        excluding keys under ``prefix`` (used to separate relay buffers)."""
        return self.current - sum(
            words for key, words in self.items() if key.startswith(prefix)
        )

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """Breakdown of the *current* footprint by key prefix.

        With no ``prefix``, keys are grouped by their first slash segment
        (``"tree/ancestors"`` counts under ``"tree/"``; a key without a
        slash groups under itself), so the result maps protocol stage to
        retained words.  With a ``prefix``, the exact keys under it are
        returned instead (``snapshot("tree/")`` -> ``{"tree/ancestors": 3,
        ...}``).
        """
        return _breakdown(self.items(), prefix)

    def items(self) -> Iterable[Tuple[str, int]]:
        """The ``(key, words)`` entries this vertex holds."""
        return self._items.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryMeter(current={self.current}, high_water={self.high_water})"


class MeterView:
    """``Network.mem(v)``: the read surface of :class:`MemoryMeter` for
    one vertex, read from its network's :class:`MemoryBank` (which only the
    network's bulk calls write)."""

    __slots__ = ("_bank", "_i")

    def __init__(self, bank: "MemoryBank", index: int) -> None:
        self._bank = bank
        self._i = index

    # -- inspection ----------------------------------------------------------

    @property
    def current(self) -> int:
        """Words currently retained."""
        return self._bank.current[self._i] + self._bank.total

    @property
    def high_water(self) -> int:
        """Maximum words ever retained simultaneously."""
        self._bank.settle(self._i)
        return self._bank.high[self._i]

    def high_water_excluding(self, prefix: str) -> int:
        """See :meth:`MemoryMeter.high_water_excluding`."""
        return self.current - sum(
            words for key, words in self.items() if key.startswith(prefix)
        )

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """See :meth:`MemoryMeter.snapshot`."""
        return _breakdown(self.items(), prefix)

    def items(self) -> Iterable[Tuple[str, int]]:
        """The ``(key, words)`` entries this vertex holds, as of the call."""
        bank, i = self._bank, self._i
        held = {key: column[i] for key, column in bank.columns.items() if i in column}
        held.update(bank.uniform)
        return held.items()


class MemoryBank:
    """The memory record of a whole network, one column per key (see the
    module docstring); vertices are the indices of ``index_of``."""

    __slots__ = ("index_of", "n", "columns", "uniform", "total", "current",
                 "high", "settled", "epoch", "peak", "ceiling",
                 "_peak_epochs", "_peak_totals")

    def __init__(self, index_of: Mapping[Hashable, int]) -> None:
        self.index_of = index_of
        self.n = n = len(index_of)
        #: Per-vertex key -> {vertex index: words}; live keys only.
        self.columns: Dict[str, Dict[int, int]] = {}
        #: Keys every vertex holds with one size, and the sum of the sizes.
        self.uniform: Dict[str, int] = {}
        self.total = 0
        #: Per vertex index: its column sum, its high-water mark and the
        #: epoch that mark is settled at.
        self.current = [0] * n
        self.high = [0] * n
        self.settled = [0] * n
        #: Counts changes of ``total``.
        self.epoch = 0
        #: The largest high-water mark of any vertex, exact at every store
        #: (settled or not): the largest ``current + total`` ever held.
        self.peak = 0
        #: An upper bound on ``max(current)``: exact when a growing
        #: ``store_all`` last computed it, raised by every growth since.
        self.ceiling = 0
        # Monotone stack: epochs ascending, totals strictly descending, so
        # the largest total at or after an epoch is the first entry at or
        # after it.
        self._peak_epochs = [0]
        self._peak_totals = [0]

    # -- high-water settling ---------------------------------------------------

    def peak_since(self, epoch: int) -> int:
        """The largest uniform total held at any point from ``epoch`` on."""
        return self._peak_totals[bisect_left(self._peak_epochs, epoch)]

    def settle(self, i: int) -> None:
        """Fold the peak vertex ``i`` reached since it last settled into
        its high-water mark: its column sum was constant over that
        interval, so the peak is that sum plus the bank's largest uniform
        total in it."""
        self._settle_each((i,))

    def _settle_each(self, indices: Iterable[int]) -> None:
        """:meth:`settle` for many vertices, with one ``peak_since`` per
        distinct stale epoch: the vertices untouched since the same event
        all carry its epoch.  (``store_each`` inlines this loop.)"""
        epoch = self.epoch
        current, high, settled = self.current, self.high, self.settled
        peaks: Dict[int, int] = {}
        for i in indices:
            stale = settled[i]
            if stale != epoch:
                peak = peaks.get(stale)
                if peak is None:
                    peak = peaks[stale] = self.peak_since(stale)
                peak += current[i]
                if peak > high[i]:
                    high[i] = peak
                settled[i] = epoch

    def high_waters(self) -> List[int]:
        """Every vertex's high-water mark, in index order."""
        self._settle_each(range(self.n))
        return list(self.high)

    def _set_total(self, total: int) -> None:
        self.total = total
        self.epoch += 1
        epochs, totals = self._peak_epochs, self._peak_totals
        while totals and totals[-1] <= total:
            totals.pop()
            epochs.pop()
        totals.append(total)
        epochs.append(self.epoch)

    # -- network-wide updates --------------------------------------------------

    def store_each(self, key: str, words_by_vertex: Mapping[Hashable, int]) -> None:
        """``MemoryMeter.store(key, words)`` at every ``v: words`` of the
        mapping, in its order: a negative size raises with the entries
        before it stored, as the per-vertex loop would leave them."""
        if key in self.uniform:
            self.demote(key)
        column = self.columns.setdefault(key, {})
        index_of = self.index_of
        epoch, total = self.epoch, self.total
        current, high, settled = self.current, self.high, self.settled
        peaks: Dict[int, int] = {}
        top = 0
        ceiling = self.ceiling
        try:
            for v, words in words_by_vertex.items():
                if words < 0:
                    _check_words(key, words)
                i = index_of[v]
                stale = settled[i]
                if stale != epoch:
                    peak = peaks.get(stale)
                    if peak is None:
                        peak = peaks[stale] = self.peak_since(stale)
                    peak += current[i]
                    if peak > high[i]:
                        high[i] = peak
                    settled[i] = epoch
                held = current[i] + words - column.get(i, 0)
                column[i] = words
                current[i] = held
                if held > ceiling:
                    ceiling = held
                held += total
                if held > high[i]:
                    high[i] = held
                    if held > top:
                        top = held
        finally:
            self.ceiling = ceiling
            if top > self.peak:
                self.peak = top
            if not column:
                del self.columns[key]

    def store_all(self, key: str, words: int) -> None:
        """Every vertex now retains ``words`` words under ``key``."""
        _check_words(key, words)
        # Vertices already holding the key drop their own entry first: a
        # shrinking column sum can only pair with the old total below a
        # peak that is already settled.
        self._drop_column(key)
        grown = words - self.uniform.get(key, 0)
        self._set_total(self.total + grown)
        self.uniform[key] = words
        # Every vertex gained ``grown`` words at once; the fullest one may
        # set the network's peak, unless even the ceiling cannot.
        if grown > 0 and self.ceiling + self.total > self.peak:
            self.ceiling = max(self.current)
            if self.ceiling + self.total > self.peak:
                self.peak = self.ceiling + self.total

    def add_each(self, key: str, vertices: Iterable[Hashable], words: int) -> None:
        """``MemoryMeter.add(key, words)`` at every listed vertex, once per
        listing: a vertex listed twice grows twice.  A negative ``words``
        raises before any vertex grows; a vertex not in the network raises
        with the listings before it added, as the per-vertex loop would
        leave them."""
        _check_words(key, words)
        if key in self.uniform:
            self.demote(key)
        column = self.columns.get(key, {})
        index_of = self.index_of
        grown: Dict[Hashable, int] = {}
        try:
            for v in vertices:
                held = grown.get(v)
                grown[v] = (column.get(index_of[v], 0) if held is None else held) + words
        finally:
            # Growth is monotone, so storing each vertex's final size leaves
            # the high-water marks the one-at-a-time adds leave.
            self.store_each(key, grown)

    def free_key(self, key: str) -> None:
        """No vertex retains anything under ``key`` any more."""
        words = self.uniform.pop(key, None)
        if words is not None:
            self._set_total(self.total - words)
        self._drop_column(key)

    def free_all(self, prefix: str) -> None:
        """:meth:`free_key` for every live key starting with ``prefix``:
        O(live keys), no vertex is visited for a key it does not hold."""
        for key in [key for key in (*self.uniform, *self.columns)
                    if key.startswith(prefix)]:
            self.free_key(key)

    def demote(self, key: str) -> None:
        """Turn the uniform ``key`` into a column holding every vertex
        (O(n)): what a bulk call that sizes it per vertex calls first.  No
        vertex's ``current`` or high-water changes."""
        words = self.uniform.pop(key)
        # The total shrinks before the column sums grow, so no vertex ever
        # pairs its grown sum with a total that still has the key.
        self._set_total(self.total - words)
        self._settle_each(range(self.n))
        self.current[:] = [held + words for held in self.current]
        self.ceiling += words
        self.columns[key] = dict.fromkeys(range(self.n), words)

    def _drop_column(self, key: str) -> None:
        column = self.columns.pop(key, None)
        if column:
            self._settle_each(column)
            current = self.current
            for i, words in column.items():
                current[i] -= words

    # -- network-wide reads ----------------------------------------------------------

    def by_group(self) -> Dict[str, int]:
        """Current words per snapshot group, summed over every vertex."""
        out: Dict[str, int] = {}
        for key, column in self.columns.items():
            group = _group_of(key)
            out[group] = out.get(group, 0) + sum(column.values())
        for key, words in self.uniform.items():
            group = _group_of(key)
            out[group] = out.get(group, 0) + words * self.n
        return out
