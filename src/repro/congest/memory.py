"""Per-vertex memory accounting.

The paper's headline contribution is the *individual memory requirement*
during preprocessing (Tables 1-2 report "Memory per vertex").  To measure it
honestly, every vertex of the simulated network owns a :class:`MemoryMeter`;
distributed algorithms register every word they retain across rounds through
the meter, and the meter tracks the high-water mark.  Benchmarks report
``max`` / ``mean`` high-water over vertices.

Conventions used across the library:

* Keys are strings namespaced by protocol stage, e.g. ``"tree/ancestors"``.
* Storing an existing key *replaces* its footprint (the common "update my
  distance estimate in place" pattern keeps a constant footprint).
* Words in flight inside a single round (the message being forwarded right
  now) are *not* charged -- matching the model, where relaying is free of
  storage as long as nothing is retained between rounds.  Relay queues that
  persist across rounds (pipelined broadcast buffers) ARE charged, under the
  ``"relay/"`` prefix, and can be reported separately.

Prefix index
------------
Stage teardown (:meth:`free_prefix`, ``Network.free_all``) used to scan
every live key at every vertex.  The meter now maintains a *group index* --
keys bucketed by their first slash segment, the same grouping
:meth:`snapshot` reports -- so freeing a slash-qualified prefix like
``"tree/"`` or ``"hopset/scratch-"`` only examines the keys of that one
group, not everything the vertex ever stored.  ``last_prefix_scan`` exposes
how many keys the most recent :meth:`free_prefix` examined; the regression
test in ``tests/test_congest_memory.py`` pins that teardown cost no longer
scales with the total live key count.

Network-level accounting
------------------------
A :class:`MemoryBank` is the one memory record of a whole network: the
network's meters are created as ``MemoryMeter(bank)`` and stay bound to it.
A key stored at *every* vertex with one size (``Network.store_all``) is a
single *uniform* entry of the bank, not ``n`` meter entries, and a bulk
free (``Network.free_key``) visits only the meters a ``key -> holders``
index lists.  Every meter reading is derived exactly from its own local
entries plus the bank's uniform term:

* ``current`` is the local sum plus the uniform total;
* the high-water mark is *settled lazily*.  Between two touches of a vertex
  its local sum is constant, so the peak it reached in between is the local
  sum plus the largest uniform total since it last settled, which the bank
  answers from a monotone stack of ``(epoch, total)`` peaks;
* a vertex that deviates from a uniform key (per-vertex ``store`` / ``add``
  / ``free`` / ``free_prefix`` on it) first *demotes* the key into ``n``
  ordinary per-vertex entries, so a key is never uniform and local at once.

A standalone ``MemoryMeter()`` has no bank and keeps eager bookkeeping;
``ReferenceNetwork`` uses those, looping over every vertex, as the
executable specification the banked meters are certified against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ..errors import MemoryAccountingError


def _group_of(key: str) -> str:
    """The index bucket of ``key``: its first slash segment (incl. the
    slash), or the whole key when it has none -- mirroring
    :meth:`MemoryMeter.snapshot`'s grouping."""
    head, sep, _ = key.partition("/")
    return head + "/" if sep else head


def _check_words(key: str, words: int) -> None:
    if words < 0:
        raise MemoryAccountingError(f"negative store of {words} words for {key!r}")


class MemoryMeter:
    """Tracks the words a single vertex retains, with a high-water mark."""

    __slots__ = ("_items", "_groups", "_current", "_high_water",
                 "_bank", "_epoch", "_scan", "_scan_generation")

    def __init__(self, bank: Optional["MemoryBank"] = None) -> None:
        """A standalone meter, or with ``bank`` one more vertex of the
        network that bank records."""
        #: Local entries only: a bank's uniform keys are not copied here.
        self._items: Dict[str, int] = {}
        #: Group index: first slash segment -> ordered set of live keys
        #: (a dict used as an insertion-ordered set).
        self._groups: Dict[str, Dict[str, None]] = {}
        self._current = 0
        self._high_water = 0
        self._bank = bank
        #: Bank epoch up to which ``_high_water`` is settled.
        self._epoch = 0
        self._scan = 0
        self._scan_generation = 0
        if bank is not None:
            self._epoch = bank.epoch
            bank.meters.append(self)

    @property
    def last_prefix_scan(self) -> int:
        """Keys examined by the most recent :meth:`free_prefix` call
        (test probe for the teardown-cost regression pin); 0 after an
        exact-key free, a bank-wide ``free_key`` included."""
        bank = self._bank
        if bank is not None and self._scan_generation != bank.generation:
            return 0
        return self._scan

    @last_prefix_scan.setter
    def last_prefix_scan(self, scanned: int) -> None:
        self._scan = scanned
        if self._bank is not None:
            self._scan_generation = self._bank.generation

    # -- mutation -----------------------------------------------------------

    def store(self, key: str, words: int) -> None:
        """Record that this vertex now retains ``words`` words under ``key``.

        Re-storing a key replaces its previous footprint.
        """
        _check_words(key, words)
        bank = self._bank
        uniform = 0
        if bank is not None:
            if key in bank.uniform:
                bank.demote(key)
            self._settle(bank)
            uniform = bank.total
        previous = self._items.get(key)
        if previous is None:
            previous = 0
            self._groups.setdefault(_group_of(key), {})[key] = None
            if bank is not None:
                bank.holders.setdefault(key, {})[self] = None
        self._items[key] = words
        self._current += words - previous
        if self._current + uniform > self._high_water:
            self._high_water = self._current + uniform

    def add(self, key: str, words: int) -> None:
        """Grow the footprint under ``key`` by ``words`` (list-append pattern)."""
        bank = self._bank
        if bank is not None and key in bank.uniform:
            bank.demote(key)
        self.store(key, self._items.get(key, 0) + words)

    def free(self, key: str) -> None:
        """Release everything stored under ``key``.

        Freeing an absent key is a no-op: stages free their scratch space
        unconditionally on exit.

        An exact-key free resolves through the item index without scanning
        any keys, so it resets ``last_prefix_scan`` to 0: the probe always
        describes the *most recent* teardown operation.  Bulk exact-key
        teardowns (``Network.free_key``) previously left a stale scan
        count from an earlier :meth:`free_prefix` pinned — the regression
        test in ``tests/test_congest_memory.py`` holds this either way.
        """
        self.last_prefix_scan = 0
        bank = self._bank
        if bank is not None and key in bank.uniform:
            bank.demote(key)
        self._release(key)

    def _release(self, key: str) -> None:
        """Drop ``key`` from the footprint and every index without
        touching ``last_prefix_scan`` (so :meth:`free_prefix`'s loop does
        not clobber the scan count it just recorded)."""
        if key in self._items:
            bank = self._bank
            if bank is not None:
                holders = bank.holders[key]
                del holders[self]
                if not holders:
                    del bank.holders[key]
            self._drop(key)

    def _drop(self, key: str) -> None:
        """Remove the local entry ``key``; the bank's holder index is the
        caller's to update."""
        if self._bank is not None:
            self._settle(self._bank)
        self._current -= self._items.pop(key)
        group = _group_of(key)
        members = self._groups[group]
        del members[key]
        if not members:
            del self._groups[group]

    def free_prefix(self, prefix: str) -> None:
        """Release every key starting with ``prefix`` (stage teardown).

        A prefix containing a slash (``"tree/"``, ``"hopset/scratch-"``)
        resolves through the group index: only the live keys of that
        prefix's first-segment group are examined.  A slash-free prefix
        may span groups and falls back to a full key scan.
        """
        bank = self._bank
        uniform: Collection[str] = ()
        if bank is not None and bank.uniform:
            for key in [k for k in bank.uniform if k.startswith(prefix)]:
                bank.demote(key)
            uniform = bank.uniform  # examined like local keys; none matches
        slash = prefix.find("/")
        if slash >= 0:
            group = prefix[: slash + 1]
            members: Collection[str] = self._groups.get(group, ())
            scanned = len(members) + sum(1 for k in uniform if _group_of(k) == group)
        else:
            members = self._items
            scanned = len(members) + len(uniform)
        matches = [k for k in members if k.startswith(prefix)]
        self.last_prefix_scan = scanned
        for key in matches:
            self._release(key)

    def _settle(self, bank: "MemoryBank") -> None:
        """Fold the peak reached since the last settle into the
        high-water mark: the local sum was constant over that interval,
        so the peak is the local sum plus the bank's largest uniform total
        in it."""
        if self._epoch != bank.epoch:
            peak = self._current + bank.peak_since(self._epoch)
            if peak > self._high_water:
                self._high_water = peak
            self._epoch = bank.epoch

    # -- inspection ----------------------------------------------------------

    @property
    def current(self) -> int:
        """Words currently retained."""
        if self._bank is not None:
            return self._current + self._bank.total
        return self._current

    @property
    def high_water(self) -> int:
        """Maximum words ever retained simultaneously."""
        if self._bank is not None:
            self._settle(self._bank)
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
        retained words — what the flight recorder samples per round.  With
        a ``prefix``, the exact keys under it are returned instead
        (``snapshot("tree/")`` -> ``{"tree/ancestors": 3, ...}``).
        """
        out: Dict[str, int] = {}
        items = self._items
        if prefix is None:
            for group, members in self._groups.items():
                out[group] = sum(items[k] for k in members)
            if self._bank is not None:
                for key, words in self._bank.uniform.items():
                    group = _group_of(key)
                    out[group] = out.get(group, 0) + words
        else:
            for key, words in self.items():
                if key.startswith(prefix):
                    out[key] = words
        return out

    def items(self) -> Iterable[Tuple[str, int]]:
        if self._bank is not None and self._bank.uniform:
            return {**self._items, **self._bank.uniform}.items()
        return self._items.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryMeter(current={self.current}, high_water={self.high_water})"


class MemoryBank:
    """The network-level memory record its meters are bound to (see the
    module docstring): uniform keys, the holder index of per-vertex keys,
    and the uniform-total peaks lazy high-waters are settled from."""

    __slots__ = ("meters", "uniform", "total", "holders", "epoch",
                 "generation", "_peak_epochs", "_peak_totals")

    def __init__(self) -> None:
        self.meters: List[MemoryMeter] = []
        #: Keys every vertex holds with one size, and the sum of the sizes.
        self.uniform: Dict[str, int] = {}
        self.total = 0
        #: Per-vertex key -> the meters holding it (an ordered set).
        self.holders: Dict[str, Dict[MemoryMeter, None]] = {}
        #: Counts changes of ``total``.
        self.epoch = 0
        #: Counts :meth:`free_key` calls; a meter's ``last_prefix_scan``
        #: stamped with an older generation reads 0.
        self.generation = 0
        # Monotone stack: epochs ascending, totals strictly descending, so
        # the largest total at or after an epoch is the first entry at or
        # after it.
        self._peak_epochs = [0]
        self._peak_totals = [0]

    def high_waters(self) -> List[int]:
        """Every meter's high-water mark, in meter order.

        :meth:`MemoryMeter._settle` for all meters in one loop, with one
        ``peak_since`` per distinct stale epoch: the meters untouched since
        the previous read all carry that read's epoch.
        """
        epoch = self.epoch
        peaks: Dict[int, int] = {}
        for meter in self.meters:
            stale = meter._epoch
            if stale != epoch:
                try:
                    peak = peaks[stale]
                except KeyError:
                    peak = peaks[stale] = self.peak_since(stale)
                peak += meter._current
                if peak > meter._high_water:
                    meter._high_water = peak
                meter._epoch = epoch
        return [meter._high_water for meter in self.meters]

    def peak_since(self, epoch: int) -> int:
        """The largest uniform total held at any point from ``epoch`` on."""
        return self._peak_totals[bisect_left(self._peak_epochs, epoch)]

    def _set_total(self, total: int) -> None:
        self.total = total
        self.epoch += 1
        epochs, totals = self._peak_epochs, self._peak_totals
        while totals and totals[-1] <= total:
            totals.pop()
            epochs.pop()
        totals.append(total)
        epochs.append(self.epoch)

    def store_all(self, key: str, words: int) -> None:
        """Every vertex now retains ``words`` words under ``key``."""
        _check_words(key, words)
        # Vertices already holding the key drop their own entry first: a
        # shrinking local sum can only pair with the old total below a
        # peak that is already settled.
        for meter in self.holders.pop(key, ()):
            meter._drop(key)
        self._set_total(self.total + words - self.uniform.get(key, 0))
        self.uniform[key] = words

    def free_key(self, key: str) -> None:
        """No vertex retains anything under ``key`` any more."""
        self.generation += 1
        words = self.uniform.pop(key, None)
        if words is not None:
            self._set_total(self.total - words)
        for meter in self.holders.pop(key, ()):
            meter._drop(key)

    def demote(self, key: str) -> None:
        """Turn the uniform ``key`` into an ordinary entry at every meter
        (O(n)): what a vertex about to deviate from it calls first.  No
        meter's ``current`` or high-water changes."""
        words = self.uniform.pop(key)
        # The total shrinks before the local sums grow, so no meter ever
        # pairs its grown local sum with a total that still has the key.
        self._set_total(self.total - words)
        group = _group_of(key)
        for meter in self.meters:
            meter._settle(self)
            meter._items[key] = words
            meter._groups.setdefault(group, {})[key] = None
            meter._current += words
        self.holders[key] = dict.fromkeys(self.meters)
