"""S16 workload models: who queries whom, and how skewed.

Serving throughput is meaningless without a traffic model.  Every model
here is a pure function of ``(population, count, seed)`` -- same seed,
same query stream, across processes and platforms -- so benchmark entries
stay comparable across commits and the differential tests can replay the
exact stream against both engines.

* ``uniform`` -- sources and destinations uniform over ordered pairs
  (the pair model of :func:`repro.routing.router.sample_pairs`);
* ``zipf`` -- destinations follow a Zipf law of exponent ``alpha`` over a
  seeded popularity ranking (hot destinations: the cache-friendly regime
  every CDN/DNS trace exhibits); sources uniform;
* ``gravity`` -- both endpoints drawn proportionally to vertex degree
  (hubs talk to hubs; degree-weighted traffic matrices);
* ``adversarial`` -- worst-stretch pair mining: score a seeded candidate
  pool by measured stretch against exact distances and keep the worst
  pairs (the SLO stress regime).
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import struct
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..errors import InputError
from ..graphs.paths import Adjacency, dijkstra

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _require_count(count) -> None:
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise InputError(
            f"query count must be a non-negative int, got {count!r}")


# ``random.sample`` keeps a pool list instead of a selected-index set while
# the population is at most this large (its ``setsize`` for k = 2).
_SAMPLE_SETSIZE = 21
# Mersenne-Twister words per bulk draw: 128 KiB as bytes.
_CHUNK_WORDS = 1 << 15


def uniform_pairs(
    nodes: Sequence[NodeId], count: int, seed=0
) -> List[Pair]:
    """Distinct ordered pairs, uniform over the population.

    The stream is ``[tuple(rng.sample(nodes, 2)) for _ in range(count)]``
    exactly, drawn in bulk.  ``rng._randbelow(m)`` takes the next
    Mersenne-Twister word ``w`` and returns ``w >> (32 - m.bit_length())``,
    retrying while that is ``>= m``, and ``getrandbits(32 * k)`` returns
    the next ``k`` words least significant first.  ``sample`` draws the
    first index below ``n``; above ``_SAMPLE_SETSIZE`` vertices it redraws
    the second below ``n`` while it repeats the first, otherwise it draws
    it below ``n - 1`` from a pool whose slot of the first pick now holds
    the last vertex.  A refill draws only words the remaining pairs are
    sure to consume (two per pair, one for a half-drawn pair), so ``rng``
    ends in the state ``sample`` leaves it in.
    """
    _require_count(count)
    rng = _rng(seed)
    nodes = list(nodes)
    n = len(nodes)
    if n < 2:
        raise InputError("need at least two vertices to form query pairs")
    redraw = n > _SAMPLE_SETSIZE
    below = n if redraw else n - 1
    shift_first = 32 - n.bit_length()
    shift_second = 32 - below.bit_length()
    pairs: List[Pair] = []
    append = pairs.append
    first = -1  # the pending pair's first index, -1 between pairs
    left = count
    while left:
        k = min(2 * left - (first >= 0), _CHUNK_WORDS)
        words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        for w in struct.unpack(f"<{k}I", words):
            if first < 0:
                j = w >> shift_first
                if j < n:
                    first = j
                continue
            j = w >> shift_second
            if j >= below:
                continue
            if j == first:
                if redraw:
                    continue
                j = n - 1
            append((nodes[first], nodes[j]))
            first = -1
            left -= 1
    return pairs


def zipf_pairs(
    nodes: Sequence[NodeId],
    count: int,
    seed=0,
    *,
    alpha: float = 1.1,
) -> List[Pair]:
    """Zipf-skewed destinations (rank ``r`` has weight ``r^-alpha``).

    The popularity ranking itself is a seeded shuffle of the population,
    so two runs with one seed hit the *same* hot destinations.  Sampling
    is a bisect over the cumulative weights -- O(log n) per query.
    """
    _require_count(count)
    rng = _rng(seed)
    nodes = list(nodes)
    if len(nodes) < 2:
        raise InputError("need at least two vertices to form query pairs")
    if not 0 < alpha < math.inf:
        raise InputError(f"zipf alpha must be positive and finite, got {alpha}")
    ranked = list(nodes)
    rng.shuffle(ranked)
    cumulative = list(itertools.accumulate(
        (r + 1) ** -alpha for r in range(len(ranked))
    ))
    total = cumulative[-1]
    pairs: List[Pair] = []
    for _ in range(count):
        target = ranked[bisect.bisect_left(cumulative,
                                           rng.random() * total)]
        source = rng.choice(nodes)
        while source == target:
            source = rng.choice(nodes)
        pairs.append((source, target))
    return pairs


def gravity_pairs(
    graph: nx.Graph,
    count: int,
    seed=0,
) -> List[Pair]:
    """Degree-weighted endpoints: P(v) proportional to deg(v) at both ends."""
    _require_count(count)
    rng = _rng(seed)
    nodes = list(graph.nodes)
    if len(nodes) < 2:
        raise InputError("need at least two vertices to form query pairs")
    weights = list(itertools.accumulate(
        max(1, graph.degree(v)) for v in nodes
    ))
    total = weights[-1]

    def draw() -> NodeId:
        return nodes[bisect.bisect_left(weights, rng.random() * total)]

    pairs: List[Pair] = []
    for _ in range(count):
        source = draw()
        target = draw()
        while target == source:
            target = draw()
        pairs.append((source, target))
    return pairs


def adversarial_pairs(
    graph: nx.Graph,
    count: int,
    seed=0,
    *,
    route_length: Callable[[NodeId, NodeId], Optional[float]],
    pool_factor: int = 4,
) -> List[Pair]:
    """Mine the worst-stretch pairs a scheme serves.

    Scores a seeded uniform candidate pool of ``pool_factor * count``
    pairs by measured stretch (``route_length`` over exact Dijkstra
    distance; ``None`` -- a routing failure -- sorts worst of all) and
    returns the ``count`` worst, worst first.  Exact distances are
    computed once per distinct source, like ``measure_stretch``.
    """
    _require_count(count)
    if pool_factor < 1:
        raise InputError("pool_factor must be >= 1")
    pool = uniform_pairs(list(graph.nodes), count * pool_factor, seed)
    by_source: Dict[NodeId, List[NodeId]] = {}
    for u, v in pool:
        by_source.setdefault(u, []).append(v)
    scored: List[Tuple[float, Pair]] = []
    adj = Adjacency.of(graph)
    for u, targets in by_source.items():
        dist, _ = dijkstra(adj, [u])
        for v in targets:
            routed = route_length(u, v)
            if routed is None:
                stretch = float("inf")
            else:
                exact = dist.get(v, 0.0)
                stretch = routed / exact if exact > 0 else 1.0
            scored.append((stretch, (u, v)))
    scored.sort(key=lambda item: (-item[0], repr(item[1])))
    return [pair for _, pair in scored[:count]]


#: Registry the harness and CLI expose.  Each generator takes
#: ``(graph, nodes, count, seed, **params)`` and returns a pair list;
#: ``adversarial`` additionally requires a ``route_length`` callable.
WORKLOADS = ("uniform", "zipf", "gravity", "adversarial")


def make_workload(
    name: str,
    graph: nx.Graph,
    nodes: Sequence[NodeId],
    count: int,
    seed=0,
    *,
    zipf_alpha: float = 1.1,
    route_length: Optional[Callable[[NodeId, NodeId], Optional[float]]] = None,
) -> List[Pair]:
    """Generate ``count`` seeded queries of the named workload."""
    if name == "uniform":
        return uniform_pairs(nodes, count, seed)
    if name == "zipf":
        return zipf_pairs(nodes, count, seed, alpha=zipf_alpha)
    if name == "gravity":
        return gravity_pairs(graph, count, seed)
    if name == "adversarial":
        if route_length is None:
            raise InputError(
                "the adversarial workload mines worst-stretch pairs and "
                "needs a route_length callable"
            )
        return adversarial_pairs(graph, count, seed,
                                 route_length=route_length)
    raise InputError(f"unknown workload {name!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
