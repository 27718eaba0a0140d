"""Regenerating the paper's Tables 1 and 2 as *measured* rows.

The paper's tables compare asymptotic bounds; this module builds every
scheme we implement on the same workload and reports the measured value of
each column -- rounds, table words, label words, stretch, memory per vertex
-- next to the paper's bound for that row (see EXPERIMENTS.md for recorded
outputs and the shape assertions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..baselines.en16_tree import build_en16_tree_scheme
from ..baselines.landmark import build_landmark_scheme
from ..baselines.tree_cover import build_tree_cover_scheme, route_cover
from ..congest.network import Network
from ..core.build import build_distributed_scheme
from ..core.low_levels import claim8_hop_limit
from ..graphs.generators import random_connected_graph, spanning_tree_of
from ..routing.router import measure_stretch, sample_pairs
from ..telemetry import (
    BoundVerdict,
    RunRecord,
    check_claim8_hop_depth,
    check_graph_columns,
    check_table1_relations,
    check_table2_relations,
    check_tree_columns,
    make_run_record,
)
from ..treerouting.scheme import build_distributed_tree_scheme
from ..tz.graph_scheme import build_centralized_scheme
from ..tz.tree_scheme import build_tree_scheme
from .reporting import format_records

NodeId = Any


@dataclass
class Table2Result:
    """Measured Table 2 plus the raw artifacts for assertions."""

    n: int
    hop_diameter_bound: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    seed: int = 0
    tree_style: str = "dfs"
    avg_degree: float = 6.0

    def render(self) -> str:
        return format_records(
            self.rows,
            title=(
                f"Table 2 (measured): exact tree routing, n={self.n}, "
                f"D<={self.hop_diameter_bound}"
            ),
        )

    def to_run_record(self) -> RunRecord:
        """The bound-checked ``table2`` manifest of this run."""
        return make_run_record(
            "table2",
            workload={
                "generator": "random_connected_graph",
                "n": self.n,
                "avg_degree": self.avg_degree,
                "tree_style": self.tree_style,
                "seed": self.seed,
                "scheme": "tree-routing",
                "hop_diameter_bound": self.hop_diameter_bound,
            },
            columns=self.rows,
            verdicts=table2_verdicts(self),
        )

    def row(self, scheme: str) -> Dict[str, Any]:
        for r in self.rows:
            if r["scheme"] == scheme:
                return r
        raise KeyError(scheme)


def run_table2(
    n: int = 1000,
    *,
    seed: int = 0,
    tree_style: str = "dfs",
    avg_degree: float = 6.0,
) -> Table2Result:
    """Build all three Table-2 schemes on one (network, tree) pair."""
    graph = random_connected_graph(n, seed=seed, avg_degree=avg_degree)
    tree = spanning_tree_of(graph, style=tree_style, seed=seed)
    result = Table2Result(n=n, hop_diameter_bound=0, seed=seed,
                          tree_style=tree_style, avg_degree=avg_degree)

    # This paper (Section 3): O(1) tables, O(log n) labels, O(log n) memory.
    net = Network(graph)
    build = build_distributed_tree_scheme(net, tree, seed=seed)
    result.hop_diameter_bound = net.hop_diameter_upper_bound()
    result.rows.append({
        "scheme": "this-paper",
        "rounds": build.rounds,
        "table_words": build.scheme.max_table_words(),
        "label_words": build.scheme.max_label_words(),
        "memory_words": build.max_memory_words,
        "paper_bound": "Õ(D+√n) / O(1) / O(log n) / O(log n)",
    })

    # [EN16b, LPP16]: O(log n) tables, O(log^2 n) labels, Õ(sqrt n) memory.
    net_base = Network(graph)
    base = build_en16_tree_scheme(net_base, tree, seed=seed)
    result.rows.append({
        "scheme": "EN16b-baseline",
        "rounds": base.rounds,
        "table_words": base.scheme.max_table_words(),
        "label_words": base.scheme.max_label_words(),
        "memory_words": base.max_memory_words,
        "paper_bound": "Õ(D+√n) / O(log n) / O(log² n) / Õ(√n)",
    })

    # [TZ01b]: centralized (NA rounds).
    cent = build_tree_scheme(tree)
    result.rows.append({
        "scheme": "TZ01b-centralized",
        "rounds": "NA",
        "table_words": cent.max_table_words(),
        "label_words": cent.max_label_words(),
        "memory_words": "NA",
        "paper_bound": "NA / O(1) / O(log n) / NA",
    })
    return result


@dataclass
class Table1Result:
    """Measured Table 1 plus raw artifacts."""

    n: int
    k: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    epsilon: float = 0.05
    hop_diameter_bound: int = 0
    seed: int = 0
    pairs: int = 150
    avg_degree: float = 6.0
    #: The build's last improving cluster pass per low level (Claim 8).
    low_level_passes: Dict[int, int] = field(default_factory=dict)

    def render(self) -> str:
        return format_records(
            self.rows,
            title=f"Table 1 (measured): compact routing, n={self.n}, k={self.k}",
        )

    def to_run_record(self) -> RunRecord:
        """The bound-checked ``table1`` manifest of this run."""
        return make_run_record(
            "table1",
            workload={
                "generator": "random_connected_graph",
                "n": self.n,
                "k": self.k,
                "avg_degree": self.avg_degree,
                "pairs": self.pairs,
                "epsilon": self.epsilon,
                "seed": self.seed,
                "scheme": "compact-routing",
                "hop_diameter_bound": self.hop_diameter_bound,
            },
            columns=self.rows,
            verdicts=table1_verdicts(self),
        )

    def row(self, scheme: str) -> Dict[str, Any]:
        for r in self.rows:
            if r["scheme"] == scheme:
                return r
        raise KeyError(scheme)


def run_table1(
    n: int = 300,
    k: int = 3,
    *,
    seed: int = 0,
    pairs: int = 150,
    epsilon: float = 0.05,
    avg_degree: float = 6.0,
) -> Table1Result:
    """Build the Table-1 schemes on one network and measure every column."""
    graph = random_connected_graph(n, seed=seed, avg_degree=avg_degree)
    pair_sample = sample_pairs(list(graph.nodes), pairs, seed=seed + 1)
    result = Table1Result(n=n, k=k, epsilon=epsilon, seed=seed,
                          pairs=pairs, avg_degree=avg_degree)

    # This paper (Appendix B, distributed).
    report = build_distributed_scheme(graph, k, epsilon=epsilon, seed=seed)
    result.hop_diameter_bound = report.hop_diameter_bound
    result.low_level_passes = report.low_level_passes
    stretch = measure_stretch(report.scheme, graph, pair_sample)
    result.rows.append({
        "scheme": "this-paper",
        "simulated_rounds": report.simulated_rounds,
        "charged_rounds": report.charged_rounds,
        "rounds_parallel_estimate": report.rounds_parallel_estimate,
        "table_words": report.scheme.max_table_words(),
        "label_words": report.scheme.max_label_words(),
        "stretch_max": stretch.max_stretch,
        "stretch_mean": stretch.mean_stretch,
        "memory_words": report.max_memory_words,
        "paper_bound": (f"(n^(1/2+1/k)+D)·γ / Õ(n^(1/k)) / O(k log n) / "
                        f"{4*k-3}+o(1) / Õ(n^(1/k))"),
    })

    # [TZ01b] centralized.
    cent = build_centralized_scheme(graph, k, seed=seed)
    stretch_c = measure_stretch(cent, graph, pair_sample)
    result.rows.append({
        "scheme": "TZ01b-centralized",
        "simulated_rounds": "NA",
        "charged_rounds": "NA",
        "rounds_parallel_estimate": "NA",
        "table_words": cent.max_table_words(),
        "label_words": cent.max_label_words(),
        "stretch_max": stretch_c.max_stretch,
        "stretch_mean": stretch_c.mean_stretch,
        "memory_words": "NA",
        "paper_bound": f"NA / Õ(n^(1/k)) / O(k log n) / {4*k-3} / NA",
    })

    # Landmark baseline (non-compact: Θ(sqrt n) tables).
    landmark = build_landmark_scheme(graph, seed=seed)
    stretch_l = measure_stretch(landmark, graph, pair_sample)
    result.rows.append({
        "scheme": "landmark-baseline",
        "simulated_rounds": "NA",
        "charged_rounds": "NA",
        "rounds_parallel_estimate": "NA",
        "table_words": landmark.max_table_words(),
        "label_words": landmark.max_label_words(),
        "stretch_max": stretch_l.max_stretch,
        "stretch_mean": stretch_l.mean_stretch,
        "memory_words": "NA",
        "paper_bound": "NA / Θ(√n) / O(log n) / unbounded / NA",
    })

    # [ABNLP90]-style hierarchical tree cover (aspect-ratio-dependent).
    cover = build_tree_cover_scheme(graph, seed=seed)
    from ..graphs.paths import Adjacency, dijkstra as _dijkstra

    worst = mean = 0.0
    by_source = {}
    for u, v in pair_sample:
        by_source.setdefault(u, []).append(v)
    count = 0
    adj = Adjacency.of(graph)
    for u, targets in by_source.items():
        dist, _ = _dijkstra(adj, [u])
        for v in targets:
            _, length = route_cover(cover, graph, u, v)
            stretch = length / dist[v] if dist[v] > 0 else 1.0
            worst = max(worst, stretch)
            mean += stretch
            count += 1
    result.rows.append({
        "scheme": "tree-cover-baseline",
        "simulated_rounds": "NA",
        "charged_rounds": "NA",
        "rounds_parallel_estimate": "NA",
        "table_words": cover.max_table_words(),
        "label_words": cover.max_label_words(),
        "stretch_max": worst,
        "stretch_mean": mean / max(1, count),
        "memory_words": "NA",
        "paper_bound": "NA / O(overlap·log Λ) / O(log Λ·log n) / O(1) / NA",
    })
    return result


# -- telemetry: bound verdicts ------------------------------------------------

def table2_verdicts(result: Table2Result) -> List[BoundVerdict]:
    """Theorem-2 verdicts for every measured Table-2 column."""
    ours = result.row("this-paper")
    verdicts = check_tree_columns(
        result.n,
        rounds=ours["rounds"],
        table_words=ours["table_words"],
        label_words=ours["label_words"],
        memory_words=ours["memory_words"],
        hop_diameter_bound=result.hop_diameter_bound,
    )
    verdicts += check_table2_relations(
        ours, result.row("EN16b-baseline"), result.row("TZ01b-centralized")
    )
    return verdicts


def table1_verdicts(result: Table1Result) -> List[BoundVerdict]:
    """Theorem-3 verdicts for every measured Table-1 column."""
    ours = result.row("this-paper")
    verdicts = check_graph_columns(
        result.n,
        result.k,
        epsilon=result.epsilon,
        rounds=ours["simulated_rounds"] + ours["charged_rounds"],
        table_words=ours["table_words"],
        label_words=ours["label_words"],
        stretch_max=ours["stretch_max"],
        memory_words=ours["memory_words"],
        hop_diameter_bound=result.hop_diameter_bound,
    )
    verdicts += check_table1_relations(ours, n=result.n)
    passes = result.low_level_passes
    verdicts += check_claim8_hop_depth(
        passes, {i: claim8_hop_limit(result.n, result.k, i) for i in passes})
    return verdicts
