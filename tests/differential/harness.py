"""Shared machinery for the engine differential tests.

Provides:

* ``TOPOLOGIES`` — named graph families (parameterized by seed);
* ``PROTOCOLS`` — named workloads that drive a network through real
  algorithm code paths (BFS floods, pipelined broadcast, a FloodMax round
  loop, raw ``send_each``/``tick`` kernels);
* :func:`run_fingerprint` — run a workload on an engine and capture every
  observable output in one comparable structure.

Both engines expose the same duck-typed surface, so a single workload
function serves as the differential oracle driver: whatever it observes on
the reference engine, the fast path must reproduce exactly.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Tuple

import networkx as nx

from repro.congest import Network, ReferenceNetwork
from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_all, convergecast_aggregate
from repro.graphs import grid_graph, random_connected_graph, ring_of_cliques
from repro.telemetry import Listener, collect, phase

NodeId = Hashable

#: The spec engine and the production engine behind one duck-typed contract,
#: by name; both accept the same constructor signature.  The ``engine``
#: fixture of tests/conftest.py parametrizes over this registry.
ENGINES = {
    "reference": ReferenceNetwork,
    "fastpath": Network,
}

#: CI smoke mode: a reduced seed matrix (set by the bench-smoke workflow).
QUICK = bool(os.environ.get("REPRO_DIFF_QUICK"))


# ---------------------------------------------------------------------------
# Topology families
# ---------------------------------------------------------------------------

def _weighted(graph: nx.Graph, seed: int) -> nx.Graph:
    """Attach deterministic float weights (exercises the CSR weight cache)."""
    rng = random.Random(seed * 7919 + 13)
    for u, v in graph.edges:
        graph[u][v]["weight"] = round(rng.uniform(1.0, 10.0), 3)
    return graph


def _path(seed: int) -> nx.Graph:
    return _weighted(nx.path_graph(12 + (seed % 4) * 5), seed)


def _cycle(seed: int) -> nx.Graph:
    return _weighted(nx.cycle_graph(13 + (seed % 4) * 5), seed)


def _star(seed: int) -> nx.Graph:
    return _weighted(nx.star_graph(10 + (seed % 5) * 4), seed)


def _grid(seed: int) -> nx.Graph:
    return grid_graph(3 + seed % 3, 4 + seed % 2, seed=seed)


def random_tree_network(n: int, seed: int) -> nx.Graph:
    """A uniformly random tree with ``uniform(1, 10)`` weights (depth
    Theta(sqrt(n)) typically)."""
    tree = nx.random_labeled_tree(n, seed=seed)
    rng = random.Random(seed)
    for u, v in tree.edges:
        tree[u][v]["weight"] = rng.uniform(1.0, 10.0)
    return tree


def _random_tree(seed: int) -> nx.Graph:
    return random_tree_network(18 + (seed % 4) * 6, seed=seed)


def _gnp(seed: int) -> nx.Graph:
    return random_connected_graph(
        20 + (seed % 3) * 10, avg_degree=4.0 + (seed % 3), seed=seed
    )


def _cliques(seed: int) -> nx.Graph:
    return ring_of_cliques(3 + seed % 3, 3 + seed % 2, seed=seed)


TOPOLOGIES: Dict[str, Callable[[int], nx.Graph]] = {
    "path": _path,
    "cycle": _cycle,
    "star": _star,
    "grid": _grid,
    "random_tree": _random_tree,
    "gnp": _gnp,
    "ring_of_cliques": _cliques,
}


def build_topology(name: str, seed: int) -> nx.Graph:
    return TOPOLOGIES[name](seed)


# ---------------------------------------------------------------------------
# Protocol workloads
# ---------------------------------------------------------------------------

def _proto_bfs(net: Any, seed: int) -> None:
    """BFS floods from two deterministic roots (send_each + deliver_batch)."""
    nodes = sorted(net.nodes(), key=repr)
    build_bfs_tree(net, root=nodes[0])
    build_bfs_tree(net, root=nodes[seed % len(nodes)])


def _proto_broadcast(net: Any, seed: int) -> None:
    """Lemma-1 pipeline: BFS tree, global broadcast, convergecast."""
    bfs = build_bfs_tree(net)
    origins = sorted(net.nodes(), key=repr)[: 3 + seed % 3]
    items = [(v, (repr(v), i)) for i, v in enumerate(origins)]
    with phase(net, "broadcast"):
        broadcast_all(net, bfs, items)
    with phase(net, "convergecast"):
        convergecast_aggregate(net, bfs, lambda v: 1, lambda a, b: a + b)


def floodmax(net: Any) -> Dict[Any, Any]:
    """FloodMax leader election as a round loop: every vertex whose leader
    changed last round stores it and sends it on every port
    (``send_each`` + dict-shaped ``tick``), for ``bound + 1`` rounds plus
    one to deliver the last changes.  Returns each vertex's leader."""
    nodes = sorted(net.nodes(), key=repr)
    leader = {v: v for v in nodes}
    changed = nodes
    net.store_each("floodmax/leader", dict.fromkeys(nodes, 1))
    for _ in range(net.hop_diameter_upper_bound() + 1):
        net.send_each([(v, u, leader[v]) for v in changed for u in net.ports(v)])
        inboxes = net.tick()
        changed = []
        for v in nodes:
            best = leader[v]
            for _, _, payload in inboxes.get(v, ()):
                if repr(payload) > repr(best):
                    best = payload
            if best != leader[v]:
                leader[v] = best
                changed.append(v)
        net.store_each("floodmax/leader", dict.fromkeys(changed, 1))
    if changed:
        net.send_each([(v, u, leader[v]) for v in changed for u in net.ports(v)])
        net.tick()
    return leader


def _proto_floodmax(net: Any, seed: int) -> None:
    """FloodMax kernel: every vertex must elect the repr-largest id."""
    leader = floodmax(net)
    assert set(leader.values()) == {max(net.nodes(), key=repr)}


def _proto_flood_kernel(net: Any, seed: int) -> None:
    """Raw engine kernel: full-neighborhood exchanges, alternating the
    dict-shaped (``tick``) and flat (``deliver_batch``) delivery paths and
    two vertex orders, with occasional wide payloads (charged extra
    rounds), partial fanouts, and idle gaps.  Each round is one
    ``send_each`` over every vertex's ports."""
    rng = random.Random(seed)
    nodes = sorted(net.nodes(), key=repr)
    wide = list(range(net.message_word_limit + 2))
    for r in range(6):
        payload = wide if r % 3 == 2 else r
        # Odd rounds in node order (what a whole-network flood issues),
        # even rounds in repr order.
        net.send_each([(v, w, payload)
                       for v in (net.nodes() if r % 2 else nodes)
                       for w in net.ports(v)])
        if r % 2:
            net.tick()
        else:
            net.deliver_batch()
        if rng.random() < 0.3:
            net.tick()  # an idle round
    # Partial fanouts (every other port).
    net.send_each([(v, w, seed) for v in nodes[:5] for w in net.ports(v)[::2]])
    net.deliver_batch()
    net.charge_rounds(seed % 4, messages=seed % 3, words=seed % 5)


PROTOCOLS: Dict[str, Callable[[Any, int], None]] = {
    "bfs": _proto_bfs,
    "broadcast_convergecast": _proto_broadcast,
    "floodmax": _proto_floodmax,
    "flood_kernel": _proto_flood_kernel,
}


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

class EdgeCountObserver(Listener):
    """Bus listener accumulating per-directed-edge message totals, the
    per-round ``(round, messages, words, phase)`` samples and the charge
    events ``(at_round, rounds, messages, words, phase)`` (a wide
    message's extra slots included)."""

    __slots__ = ("edges", "rounds", "charges")

    def __init__(self) -> None:
        self.edges: Counter = Counter()
        self.rounds: List[Tuple[int, int, int, Any]] = []
        self.charges: List[Tuple[int, int, int, int, Any]] = []

    def on_round(self, net: Any, delivered: List[Any], words: int) -> None:
        for src, dst, _ in delivered:
            self.edges[(repr(src), repr(dst))] += 1
        self.rounds.append(
            (net.metrics.rounds, len(delivered), words, net.metrics.phase_name))

    def on_charge(self, net: Any, rounds: int, messages: int, words: int) -> None:
        self.charges.append(
            (net.metrics.rounds, rounds, messages, words, net.metrics.phase_name))


def meter_state(net: Any) -> Dict[str, Tuple[Any, ...]]:
    """Everything a vertex's meter exposes, per vertex: current, high-water,
    the grouped and the exact breakdown.  Compares with ``==``; engines must agree on it after any schedule."""
    state = {}
    for v in net.nodes():
        meter = net.mem(v)
        state[repr(v)] = (
            meter.current,
            meter.high_water,
            meter.snapshot(),
            dict(meter.items()),
            meter.high_water_excluding("relay/"),
        )
    return state


def run_fingerprint(
    engine_cls: Callable[..., Any],
    graph: nx.Graph,
    workload: Callable[[Any, int], None],
    workload_seed: int,
    **net_kwargs: Any,
) -> Dict[str, Any]:
    """Run ``workload`` on a fresh engine; capture every observable output.

    The returned dict compares with ``==``: identical runs on the two
    engines must produce identical fingerprints, covering round counts and
    metrics (phases included), per-directed-edge message totals, phased
    charge events, per-vertex memory high-waters, and the traffic and
    phase of every simulated round.
    """
    net = engine_cls(graph, **net_kwargs)
    edge_obs = EdgeCountObserver()
    with collect(edge_obs):
        workload(net, workload_seed)
    return {
        "metrics": net.metrics.to_dict(),
        "fingerprint": net.metrics.fingerprint(),
        "memory_high_water": {
            repr(v): hw for v, hw in net.memory_high_water().items()
        },
        "max_memory": net.max_memory(),
        "edges": dict(edge_obs.edges),
        "charges": edge_obs.charges,
        "rounds": edge_obs.rounds,
    }
