"""End-to-end distributed construction of the routing scheme (Theorem 3).

``build_distributed_scheme`` wires together every phase of Appendix B:

1. sample the Thorup-Zwick hierarchy ``A_0 ⊇ ... ⊇ A_k = ∅``;
2. exact clusters + exact pivots for the low levels ``i < ⌈k/2⌉``
   (hop-limited explorations; Claims 6/8 round accounting);
3. the implicit virtual graph ``G'`` on ``V' = A_{⌈k/2⌉}`` with hop bound
   ``B = Θ(n^{⌈k/2⌉/k} log n)`` (Claim 7), accessed only through B-bounded
   explorations -- never materialized;
4. a hopset for G' with path recovery and owner-bounded storage
   (Theorem 1 via the TZ-emulator construction, DESIGN.md substitution 1);
5. approximate pivots and approximate cluster trees for the high levels;
6. the Section-3 distributed tree routing over *all* cluster trees in
   parallel, and the table/label assembly.

The returned :class:`BuildReport` carries the scheme plus everything the
Table-1 benchmarks report: total rounds (sequentially simulated and the
parallel-schedule estimate), message counts, per-vertex memory high-water,
and artifact sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

import networkx as nx

from ..congest.bfs import build_bfs_tree
from ..congest.network import Network
from ..errors import InputError
from ..graphs.validation import require_weighted_connected
from ..graphs.virtual import VirtualGraphOracle
from ..hopsets.construction import build_hopset
from ..routing.artifacts import GraphRoutingScheme
from ..telemetry import events as _tele
from ..tz.clusters import compute_pivots
from ..tz.hierarchy import Hierarchy, sample_hierarchy, virtual_level
from .assembly import assemble_labels, assemble_tables, build_tree_schemes
from .high_levels import HighLevelConfig, build_high_level_clusters
from .low_levels import build_exact_low_level_clusters

NodeId = Hashable


@dataclass
class BuildReport:
    """The constructed scheme plus construction-cost observability."""

    scheme: GraphRoutingScheme
    k: int
    epsilon: float
    beta: int
    n: int
    hop_diameter_bound: int
    virtual_size: int
    hopset_size: int
    hopset_max_out_degree: int
    rounds_sequential: int
    rounds_parallel_estimate: int
    messages: int
    max_memory_words: int
    mean_memory_words: float
    max_trees_per_vertex: int
    stretch_bound: float = 0.0
    phase_rounds: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready cost summary (telemetry RunRecords, bench twins)."""
        return {
            "n": self.n,
            "k": self.k,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "hop_diameter_bound": self.hop_diameter_bound,
            "virtual_size": self.virtual_size,
            "hopset_size": self.hopset_size,
            "rounds_sequential": self.rounds_sequential,
            "rounds_parallel_estimate": self.rounds_parallel_estimate,
            "messages": self.messages,
            "max_memory_words": self.max_memory_words,
            "mean_memory_words": round(self.mean_memory_words, 2),
            "max_trees_per_vertex": self.max_trees_per_vertex,
            "table_words": self.scheme.max_table_words(),
            "label_words": self.scheme.max_label_words(),
            "stretch_bound": self.stretch_bound,
            "phase_rounds": dict(self.phase_rounds),
        }

    def summary(self) -> str:
        return (
            f"n={self.n} k={self.k} eps={self.epsilon} beta={self.beta} "
            f"|V'|={self.virtual_size} |H|={self.hopset_size} "
            f"rounds(par)={self.rounds_parallel_estimate} "
            f"mem(max)={self.max_memory_words} "
            f"table(max)={self.scheme.max_table_words()} "
            f"label(max)={self.scheme.max_label_words()}"
        )


def default_beta(virtual_size: int, kappa: int) -> int:
    """A hop budget comfortably above the measured hopbound of the
    TZ-emulator hopsets at these scales (``repro fig hopset`` re-measures β)."""
    return 2 * max(1, math.ceil(math.log2(virtual_size + 2))) + kappa


def build_distributed_scheme(
    graph: nx.Graph,
    k: int,
    *,
    epsilon: float = 0.05,
    beta: Optional[int] = None,
    kappa: int = 3,
    seed: int = 0,
    hierarchy: Optional[Hierarchy] = None,
    net: Optional[Network] = None,
) -> BuildReport:
    """Build the paper's low-memory distributed routing scheme.

    Parameters mirror Theorem 3: ``k`` controls the table-size/stretch
    tradeoff (stretch <= 4k-3+o(1), tables Õ(n^{1/k}), labels O(k log n));
    ``epsilon`` the approximation slack; ``kappa`` the hopset's internal
    hierarchy depth (the paper's 1/ρ -- higher means less hopset memory,
    larger β).
    """
    require_weighted_connected(graph)
    if k < 2:
        raise InputError("the distributed scheme needs k >= 2 (use the "
                         "centralized scheme or tree routing for k=1)")
    if not (0.0 < epsilon < 0.2):
        raise InputError("epsilon must be in (0, 0.2) (paper: eps < 1/5)")
    n = graph.number_of_nodes()
    if net is None:
        net = Network(graph)
    with _tele.span("build/bfs+hierarchy", n=n, k=k):
        bfs = build_bfs_tree(net)
        if hierarchy is None:
            hierarchy = sample_hierarchy(list(graph.nodes), k, seed=seed)
        pivots = compute_pivots(graph, hierarchy)
    boundary = virtual_level(k)  # ⌈k/2⌉

    # -- low levels ----------------------------------------------------------
    with _tele.span("build/low-levels", boundary=boundary):
        low_trees = build_exact_low_level_clusters(net, hierarchy, pivots, boundary)

    # -- virtual graph + hopset ------------------------------------------------
    virtual_vertices = sorted(hierarchy.set_at(boundary), key=repr)
    if not virtual_vertices:
        raise InputError("A_{ceil(k/2)} is empty; graph too small for this k")
    hop_bound = int(
        min(n, math.ceil(4.0 * n ** (boundary / k) * max(1.0, math.log(n))))
    )
    with _tele.span("build/hopset", kappa=kappa):
        oracle = VirtualGraphOracle(graph, virtual_vertices, hop_bound)
        hopset_build = build_hopset(net, oracle, kappa=kappa, seed=seed)
    if beta is None:
        beta = default_beta(oracle.m, kappa)
    config = HighLevelConfig(epsilon=epsilon, beta=beta)

    # -- high levels --------------------------------------------------------------
    with _tele.span("build/high-levels", beta=beta):
        high_trees, approx_pivots = build_high_level_clusters(
            net, oracle, hopset_build.hopset, hierarchy, config, boundary
        )

    cluster_trees = dict(low_trees)
    cluster_trees.update(high_trees)

    # -- tree routing + assembly ----------------------------------------------------
    with _tele.span("build/tree-routing", trees=len(cluster_trees)):
        schemes, stats = build_tree_schemes(net, bfs, cluster_trees, seed=seed)
    with _tele.span("build/assembly"):
        tables = assemble_tables(net, schemes)
        pivot_reference: Dict[int, Dict[NodeId, float]] = {
            i: pivots.dist[i] for i in range(min(boundary + 1, k))
        }
        pivot_reference.update(approx_pivots)
        slack = (1.0 + 6.0 * epsilon) * (1.0 + epsilon)
        labels = assemble_labels(
            net, hierarchy, cluster_trees, schemes, pivot_reference, slack=slack
        )
        scheme = GraphRoutingScheme(
            k=k, tables=tables, labels=labels, tree_schemes=schemes
        )

    # -- cost reporting ---------------------------------------------------------------
    s = max(1, stats.max_trees_per_vertex)
    offsets = math.ceil(math.sqrt(s * n) * max(1.0, math.log(n)))
    rounds_sequential = net.metrics.total_rounds
    rounds_parallel = (
        rounds_sequential - stats.tree_rounds_total + stats.tree_rounds_max + offsets
    )
    high_water = net.memory_high_water()
    if _tele._collectors:
        _tele.gauge("memory.high_water_words", max(high_water.values()))
    return BuildReport(
        scheme=scheme,
        k=k,
        epsilon=epsilon,
        beta=beta,
        n=n,
        hop_diameter_bound=net.hop_diameter_upper_bound(),
        virtual_size=oracle.m,
        hopset_size=hopset_build.size,
        hopset_max_out_degree=hopset_build.hopset.max_out_degree(),
        rounds_sequential=rounds_sequential,
        rounds_parallel_estimate=rounds_parallel,
        messages=net.metrics.messages,
        max_memory_words=max(high_water.values()),
        mean_memory_words=sum(high_water.values()) / len(high_water),
        max_trees_per_vertex=stats.max_trees_per_vertex,
        stretch_bound=(4 * k - 3) * (1 + 6 * epsilon) ** 2,
        phase_rounds=net.metrics.by_phase(),
    )
