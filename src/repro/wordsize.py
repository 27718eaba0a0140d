"""Machine-word accounting.

The CONGEST RAM model of the paper (Section 2) lets a message carry "an
identity of a vertex, an edge weight, a distance in the graph, or anything
else of no larger (up to a fixed constant factor) size".  We therefore count
*words*, where one word holds a vertex id, a port number, an edge weight, a
distance, or a small integer.  Table sizes, label sizes and per-vertex memory
are all reported in words, which is the unit used by the paper's Tables 1-2.

:func:`words_of` computes the word footprint of the payload objects the
algorithms exchange and store.  The encoding is deliberately simple and
conservative:

* ``None`` and booleans: 1 word (a tag);
* ints and floats (ids, weights, distances): 1 word;
* strings: 1 word per 8 characters (ids are short);
* tuples/lists/sets/frozensets: sum of elements (no container overhead --
  matching how a message would be serialized field by field);
* dicts: sum over keys and values.

Nested containers are handled recursively.  Custom payload classes may
expose a ``word_size()`` method which takes precedence.  Objects whose type
is exactly one of the built-in scalars, ``tuple`` or ``list`` are sized
without the attribute probe (none of them has a ``word_size``); subclasses
take the general path, so an override still wins.
"""

from __future__ import annotations

from typing import Any

from .errors import InputError

_ONE_WORD_TYPES = frozenset({int, float, bool, type(None)})


def words_of(obj: Any) -> int:
    """Return the number of machine words needed to encode ``obj``.

    >>> words_of(7)
    1
    >>> words_of((1, 2.5, "v3"))
    3
    >>> words_of([(1, 2), (3, 4)])
    4
    """
    cls = type(obj)
    if cls in _ONE_WORD_TYPES:
        return 1
    if cls is not tuple and cls is not list:
        if isinstance(obj, (int, float)):
            return 1
        if isinstance(obj, str):
            return max(1, (len(obj) + 7) // 8)
        size_method = getattr(obj, "word_size", None)
        if callable(size_method):
            return int(size_method())
    if isinstance(obj, (tuple, list, set, frozenset)):
        words = 0
        for item in obj:
            words += 1 if type(item) in _ONE_WORD_TYPES else words_of(item)
        return words
    if isinstance(obj, dict):
        return sum(words_of(k) + words_of(v) for k, v in obj.items())
    raise InputError(f"cannot compute word size of {type(obj).__name__!r}")
