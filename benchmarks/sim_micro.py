"""Engine microbenchmark: fast path vs reference wall-clock.

Times identical communication kernels on the two round engines —
:class:`repro.congest.ReferenceNetwork` (the frozen seed oracle) and
:class:`repro.congest.Network` (the production fast path) — over the F7
graph family (``random_connected_graph(800, avg_degree=6.0, seed=3)``,
the largest size of ``repro fig graph-rounds``):

* ``fig7_flood``    — full-neighborhood exchanges (one ``send_each`` per
  round over every vertex's ports + ``deliver_batch``): the pure engine
  round-trip, also printed as nanoseconds per message on each engine;
* ``fig7_bfs``      — repeated BFS-tree floods (mixed algorithm/engine);
* ``fig7_meter``    — memory metering with no traffic, through the bulk
  calls alone: a ``store_each`` over every vertex per key of
  ``METER_KEYS``, a ``store_all`` that an ``add_each`` then demotes, a
  ``free_key`` for every other key and a ``free_all`` of the rest (the
  network's column bank against one ``MemoryMeter`` per vertex);
* ``fig7_wave``     — the tree-routing stages' round shape over a BFS tree:
  a down-wave, one ``send_each`` per level delivered by the dict-shaped
  ``tick``, then a ``convergecast_up`` (each round one ``send_each``
  too), with a ``store_each`` per wave;
* ``fig7_compile``  — ``COMPILES`` constructions of the engine over the
  graph and no traffic: the fast path compiles port tables and per-vertex
  arc maps, the reference builds one ``MemoryMeter`` per vertex.

This is the measurement that justifies keeping a fast path beside the
oracle, and the one thing the perf ledger (``benchmarks/perf``) does not
time.  Every workload first replays on both engines and asserts the
deterministic outputs are identical (``RunMetrics.fingerprint()``, every
vertex's memory high-water, the words held per key group, and the topology the engines answer: ``ports``,
``neighbors``, ``degree``, ``has_edge`` and ``weight`` at every vertex and
edge) — a benchmark that compared engines computing different things would
be meaningless.  ``speedup_wall`` is *reported*, not gated: the
timed regions are tens of milliseconds, where a threshold is a coin flip.

Run it standalone: ``python benchmarks/sim_micro.py``.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

# standalone: make src/ importable
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.congest import Network, ReferenceNetwork
from repro.congest.bfs import build_bfs_tree
from repro.congest.primitives import Forest, convergecast_up
from repro.graphs import random_connected_graph

#: The F7 family parameters (largest size of ``repro fig graph-rounds``).
FIG7_N = 800
FIG7_SEED = 3

#: Timing repetitions per engine (best-of, to shed scheduler noise).
BEST_OF = 3

#: Keys ``fig7_meter`` stores at every vertex, one ``store_each`` each.
METER_KEYS = 8

#: Down-waves plus convergecasts ``fig7_wave`` runs over one BFS tree.
WAVES = 6

#: Engine constructions ``fig7_compile`` times.
COMPILES = 10


def _fig7_graph():
    return random_connected_graph(FIG7_N, avg_degree=6.0, seed=FIG7_SEED)


def _flood(net: Any) -> None:
    arcs = [(v, w, None) for v in net.nodes() for w in net.ports(v)]
    for _ in range(25):
        net.send_each(arcs)
        net.deliver_batch()


def _bfs(net: Any) -> None:
    for _ in range(12):
        build_bfs_tree(net)


def _meter(net: Any) -> None:
    nodes = list(net.nodes())
    for r in range(4):
        net.free_all("meter/")  # the keys the previous round left
        for k in range(METER_KEYS):
            net.store_each(f"meter/k{k}",
                           {v: 1 + (i + k + r) % 3 for i, v in enumerate(nodes)})
        net.store_all("meter/uniform", 1 + r % 2)
        # Demotes the uniform key; every other vertex is listed twice.
        net.add_each("meter/uniform", nodes + nodes[::2], 1)
        for k in range(0, METER_KEYS, 2):
            net.free_key(f"meter/k{k}")


def _wave(net: Any) -> None:
    forest = Forest.from_parent_map(build_bfs_tree(net).parent)
    levels: Dict[int, List[Any]] = {}
    for v in sorted(forest.vertices(), key=repr):
        if forest.children[v]:
            levels.setdefault(forest.depth[v], []).append(v)
    for r in range(WAVES):
        for depth in sorted(levels):
            net.send_each([(v, c, (r, depth))
                           for v in levels[depth] for c in forest.children[v]])
            net.tick()
        net.store_each("wave/seen", {v: 1 + (r + d) % 3 for v, d in forest.depth.items()})
        convergecast_up(net, forest, lambda v: 1, lambda v, sizes: 1 + sum(sizes))
    net.free_key("wave/seen")


def _compile(net: Any) -> None:
    for _ in range(COMPILES):
        type(net)(net.graph)


def _topology(net: Any) -> Tuple[List[Any], List[Any]]:
    """Everything the engine answers about the graph: per vertex its ports,
    neighbours and degree; per edge ``has_edge`` and ``weight`` both ways."""
    vertices = [(v, net.ports(v), list(net.neighbors(v)), net.degree(v))
                for v in net.nodes()]
    edges = [(u, v, net.has_edge(u, v), net.has_edge(v, u),
              net.weight(u, v), net.weight(v, u))
             for u, v in net.graph.edges]
    return vertices, edges


#: name -> (graph factory, workload, vertex count).  The graph is built
#: once per workload and shared by every engine/repetition: the engines
#: are certified (tests/differential) not to mutate it.
WORKLOADS: Dict[str, Tuple[Callable[[], Any], Callable[[Any], None], int]] = {
    "fig7_flood": (_fig7_graph, _flood, FIG7_N),
    "fig7_bfs": (_fig7_graph, _bfs, FIG7_N),
    "fig7_meter": (_fig7_graph, _meter, FIG7_N),
    "fig7_wave": (_fig7_graph, _wave, FIG7_N),
    "fig7_compile": (_fig7_graph, _compile, FIG7_N),
}


def _time_engine(
    engine_cls, graph, workload: Callable[[Any], None]
) -> Tuple[float, Any]:
    """Best-of-``BEST_OF`` wall time; returns (seconds, last network)."""
    best = float("inf")
    net = None
    for _ in range(BEST_OF):
        net = engine_cls(graph)
        started = time.perf_counter()
        workload(net)
        best = min(best, time.perf_counter() - started)
    return best, net


def _ns_per(seconds: float, messages: int) -> Any:
    """Wall nanoseconds per message, or None for a kernel sending none."""
    return round(seconds * 1e9 / messages, 1) if messages else None


def run_sim_micro() -> List[Dict[str, Any]]:
    """Measure every workload on both engines; return one record each.

    Raises ``AssertionError`` if the engines' deterministic outputs ever
    diverge — equality is a precondition of the comparison, enforced here
    and (exhaustively) by ``tests/differential/``.
    """
    records: List[Dict[str, Any]] = []
    for name, (graph_of, workload, n) in WORKLOADS.items():
        graph = graph_of()
        ref_s, ref_net = _time_engine(ReferenceNetwork, graph, workload)
        fast_s, fast_net = _time_engine(Network, graph, workload)
        assert fast_net.metrics.fingerprint() == ref_net.metrics.fingerprint(), (
            f"{name}: fast engine metrics diverged"
        )
        assert fast_net.memory_high_water() == ref_net.memory_high_water(), (
            f"{name}: fast engine memory accounting diverged"
        )
        assert fast_net.memory_by_group() == ref_net.memory_by_group(), (
            f"{name}: fast engine memory groups diverged"
        )
        assert _topology(fast_net) == _topology(ref_net), (
            f"{name}: fast engine topology diverged"
        )
        m = fast_net.metrics
        records.append({
            "workload": name,
            "n": n,
            "rounds": m.rounds,
            "messages": m.messages,
            "message_words": m.message_words,
            "max_memory": fast_net.max_memory(),
            "ref_wall_s": round(ref_s, 4),
            "fast_wall_s": round(fast_s, 4),
            "speedup_wall": round(ref_s / fast_s, 2),
            "ref_ns_per_msg": _ns_per(ref_s, m.messages),
            "fast_ns_per_msg": _ns_per(fast_s, m.messages),
        })
    return records


def render(records: List[Dict[str, Any]]) -> str:
    header = (
        f"{'workload':<16}{'n':>7}{'rounds':>8}{'messages':>10}{'words':>10}"
        f"{'ref s':>9}{'fast s':>9}{'fast x':>9}"
    )
    lines = ["engine microbenchmark: fast path vs reference (fig7 family)",
             header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['workload']:<16}{r['n']:>7}{r['rounds']:>8}{r['messages']:>10}"
            f"{r['message_words']:>10}{r['ref_wall_s']:>9.3f}"
            f"{r['fast_wall_s']:>9.3f}{r['speedup_wall']:>8.2f}x"
        )
    for r in records:
        # Only the flood's timed region is engine work and nothing else.
        if r["workload"] == "fig7_flood":
            lines.append(
                f"fig7_flood per message: reference {r['ref_ns_per_msg']:.0f} ns, "
                f"fast path {r['fast_ns_per_msg']:.0f} ns"
            )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run_sim_micro()))
