"""Messages exchanged by vertices of the CONGEST simulator.

A :class:`Message` travels across exactly one edge in one round.  The payload
is an arbitrary (picklable) Python object whose size in machine words is
computed by :func:`repro.wordsize.words_of` unless given explicitly.  The
network validates payload width against its configured per-message word
limit, which models the CONGEST RAM restriction of the paper (Section 2):
messages carry O(1) words, except where an algorithm explicitly batches
(e.g. the light-edge lists of Section 3.2, which are O(log n) words and are
charged proportionally).

``Message`` is a hand-rolled ``__slots__`` value class rather than a
dataclass: simulator hot loops construct one object per delivered message,
and a plain ``__init__`` is several times cheaper than the generated
frozen-dataclass path (measured; see ``benchmarks/sim_micro.py``).  It keeps
dataclass-like semantics — keyword or positional construction, value
equality, hashability, a field-naming ``repr`` — and is immutable by
convention: nothing in the library writes to a message after construction,
and the engines may share one payload object across a whole batch.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..wordsize import words_of

NodeId = Hashable


class Message:
    """A single point-to-point message.

    Attributes
    ----------
    src, dst:
        Endpoint vertex ids; ``(src, dst)`` must be an edge of the network.
    kind:
        Short protocol tag used by receivers to dispatch (does not count
        toward the payload width; it models the constant-size message type
        field every protocol message carries).
    payload:
        The data words carried by the message.
    words:
        Cached width of the payload in machine words.  Omitted (or
        negative), it is computed via :func:`repro.wordsize.words_of`;
        the fast-path engine passes a precomputed value positionally —
        ``Message(src, dst, kind, payload, words)`` — so batched sends
        size a shared payload once instead of once per message.
    """

    __slots__ = ("src", "dst", "kind", "payload", "words")

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        kind: str,
        payload: Any = None,
        words: int = -1,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.words = words_of(payload) if words < 0 else words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.kind == other.kind
            and self.payload == other.payload
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.kind, self.payload, self.words))

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, words={self.words!r})"
        )
