"""Global broadcast via the BFS tree (Lemma 1).

Lemma 1 of the paper: if the vertices collectively hold ``M`` messages of
O(1) words each, then all vertices can receive all of them within
``O(M + D)`` rounds, by upcasting the messages to the BFS root in a pipeline
and then downcasting them, again pipelined, along the tree.

Simulating each of the ``M * n`` individual deliveries as message objects is
prohibitively slow in Python, and adds nothing: the pipeline's schedule is
deterministic.  :func:`broadcast_all` therefore *charges* the exact pipeline
round count

    ``up = M + height`` (convergecast of M items to the root) plus
    ``down = M + height`` (root re-emits one item per round),

delivers every payload to the caller, and records ``M * (n - 1 + height)``
message events.  Memory: each origin holds its own items (caller-charged);
relay vertices on the upcast may buffer items, which the paper bounds with
random start times (proof of Lemma 2); we charge an explicit
``relay/broadcast`` buffer of ``O(log n)`` words at every tree vertex for the
duration of the call and free it on exit.

The inverse primitive :func:`convergecast_aggregate` aggregates a value from
all vertices to the root with a combining function (used for global minima /
counts); it costs ``height`` rounds and O(1) words per vertex because partial
aggregates are combined in place.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, List, Sequence, Tuple

from ..wordsize import words_of
from .bfs import BfsTree
from .network import Network

NodeId = Hashable


def broadcast_all(
    net: Network,
    bfs: BfsTree,
    items: Sequence[Tuple[NodeId, Any]],
) -> List[Any]:
    """Deliver every payload in ``items`` to every vertex (Lemma 1).

    ``items`` is a sequence of ``(origin, payload)`` pairs; the origin must
    currently hold the payload (the caller is responsible for having charged
    it).  Returns the payload list in the deterministic order in which every
    vertex receives them (sorted by origin then insertion order), so callers
    can run identical per-vertex handlers.

    Rounds charged: ``2 * (M + height)`` where ``M = len(items)`` (counted in
    O(1)-word units: wider payloads occupy proportionally more pipeline
    slots).
    """
    height = bfs.height
    slots = 0
    total_words = 0
    for _, payload in items:
        words = words_of(payload)
        total_words += words
        slots += max(1, math.ceil(words / net.message_word_limit))
    rounds = 2 * (slots + height)
    # Transit buffers on the pipeline: O(log n) words per relay vertex,
    # whp (random start times, cf. the proof of Lemma 2).
    buffer_words = max(1, int(math.log2(max(2, net.n))))
    net.store_all("relay/broadcast", buffer_words)
    net.charge_rounds(
        rounds,
        messages=slots * (net.n - 1 + height),
        words=total_words * (net.n - 1 + height),
    )
    net.free_key("relay/broadcast")
    indexed = sorted(enumerate(items), key=lambda pair: (repr(pair[1][0]), pair[0]))
    return [payload for _, (_, payload) in indexed]


def convergecast_aggregate(
    net: Network,
    bfs: BfsTree,
    value_of: Callable[[NodeId], Any],
    combine: Callable[[Any, Any], Any],
) -> Any:
    """Aggregate ``value_of(v)`` over all vertices to the BFS root.

    Classic convergecast: leaves send their values; every internal vertex
    combines its children's partial aggregates with its own value *in place*
    (O(1) words) and forwards one message to its parent.  Takes ``height``
    simulated rounds (charged; per-edge traffic is one O(1)-word message).
    """
    height = bfs.height
    net.store_all("relay/convergecast", 1)
    net.charge_rounds(height, messages=net.n - 1, words=net.n - 1)
    net.free_key("relay/convergecast")
    result = None
    for v in net.nodes():
        val = value_of(v)
        result = val if result is None else combine(result, val)
    return result
