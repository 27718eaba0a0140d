"""S20 shard plan: deterministic query partitioning.

A shard plan must be a *pure function of the query* — never of arrival
order, worker count changes aside — so that (a) the same ``(source,
target)`` pair always lands on the same worker (its LRU cache then sees
every repeat, making the summed shard hit counters equal the one-process
counters when no eviction occurs), and (b) reports merge order-
insensitively.  Python's builtin ``hash`` is salted per process
(``PYTHONHASHSEED``), which would scatter a pair differently in every
worker and test run; the plan hashes each **serialized** id with crc32
instead, which is stable across processes, platforms and runs, and
combines the two 32-bit id hashes of a pair with an integer mix.  A
stream names few distinct ids (2000 on the bench tables) next to its
pairs (150k), so :func:`partition_pairs` serializes each id once per
call and pays only the mix per pair.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, Hashable, List, Sequence, Tuple

from ..errors import InputError
from ..routing.serialization import encode_id

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]

#: Domain separator so shard hashing can never collide with other crc uses.
_PLAN_TAG = b"repro.shard.plan:"

#: Odd 64-bit multiplier of the pair mix (2^64 / golden ratio).
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _canonical(node: NodeId) -> NodeId:
    """Ids that compare equal are one key to the tables and to a worker's
    LRU (``1 == 1.0 == True``), so they must be one id to the plan."""
    if isinstance(node, bool) or (isinstance(node, float)
                                  and node.is_integer()):
        return int(node)
    if isinstance(node, tuple):
        return tuple(_canonical(x) for x in node)
    return node


def _id_hash(node: NodeId) -> int:
    """crc32 of the id's serialized form (32 bits, process-stable)."""
    blob = json.dumps(encode_id(_canonical(node)), separators=(",", ":"))
    return zlib.crc32(_PLAN_TAG + blob.encode("utf-8"))


def _mix(source_hash: int, target_hash: int, workers: int) -> int:
    """Multiply-xorshift over the 64-bit concatenation of two id hashes.

    The modulus reads the low bits, which in the bare concatenation are
    the target's alone (every query for a hot target would land on one
    worker, whatever its source); the multiply carries every bit of both
    hashes into the high half and the shift folds that half back down.
    """
    x = (source_hash << 32 | target_hash) * _MIX & _MASK64
    return (x ^ x >> 32) % workers


def shard_of(source: NodeId, target: NodeId, workers: int) -> int:
    """The shard index serving ``source -> target`` among ``workers``."""
    if workers <= 0:
        raise InputError(f"workers must be positive, got {workers}")
    if workers == 1:
        return 0
    return _mix(_id_hash(source), _id_hash(target), workers)


def partition_pairs(
    pairs: Sequence[Pair],
    workers: int,
) -> Tuple[List[List[Pair]], List[List[int]]]:
    """Split a pair stream into per-shard slices, preserving stream order.

    Returns ``(slices, indices)`` where ``indices[s][j]`` is the position
    in the original stream of ``slices[s][j]`` — the pool uses it to
    reassemble per-query results in stream order, so the sharded result
    list is position-for-position comparable with the in-process engine's.
    Every pair lands where :func:`shard_of` puts it; the id hashes are
    memoized for the duration of this call only.
    """
    if workers <= 0:
        raise InputError(f"workers must be positive, got {workers}")
    if workers == 1:
        only = [(u, v) for u, v in pairs]
        return [only], [list(range(len(only)))]
    slices: List[List[Pair]] = [[] for _ in range(workers)]
    indices: List[List[int]] = [[] for _ in range(workers)]
    hashes: Dict[NodeId, int] = {}
    known = hashes.get
    for i, (u, v) in enumerate(pairs):
        hu = known(u)
        if hu is None:
            hu = hashes[u] = _id_hash(u)
        hv = known(v)
        if hv is None:
            hv = hashes[v] = _id_hash(v)
        s = _mix(hu, hv, workers)
        slices[s].append((u, v))
        indices[s].append(i)
    return slices, indices

