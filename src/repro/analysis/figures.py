"""Figure sweeps F1-F9 (see DESIGN.md's per-experiment index).

The paper has no figures; each sweep here renders one of its asymptotic
claims as measured data.  Every function returns a list of records (dicts);
called with its defaults it runs the workload EXPERIMENTS.md documents,
which ``python -m repro fig <name>`` prints with
:func:`repro.analysis.reporting.format_records` and
``tests/test_experiments_golden.py`` pins row for row.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from ..baselines.en16_tree import build_en16_tree_scheme
from ..congest.network import Network
from ..core.build import build_distributed_scheme
from ..graphs.generators import random_connected_graph, spanning_tree_of
from ..graphs.trees import depths
from ..graphs.virtual import VirtualGraphOracle, default_hop_bound
from ..hopsets.construction import build_hopset
from ..hopsets.hopset import measure_hopbound
from ..routing.router import measure_stretch, sample_pairs
from ..treerouting.multi import build_many_tree_schemes
from ..treerouting.scheme import build_distributed_tree_scheme
from ..tz.hierarchy import sample_hierarchy

Record = Dict[str, Any]


def fig_tree_rounds(
    sizes: Sequence[int] = (250, 500, 1000, 2000),
    *,
    seed: int = 3,
    tree_style: str = "dfs",
) -> List[Record]:
    """F1: tree-routing construction rounds vs n (√n + D shape)."""
    records: List[Record] = []
    for n in sizes:
        graph = random_connected_graph(n, seed=seed)
        tree = spanning_tree_of(graph, style=tree_style, seed=seed)
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, seed=seed)
        records.append({
            "n": n,
            "rounds": build.rounds,
            "rounds_per_sqrt_n_log2": round(
                build.rounds / (math.sqrt(n) * math.log2(n) ** 2), 3
            ),
            "D_bound": net.hop_diameter_upper_bound(),
            "ut_size": build.ut_size,
        })
    return records


def fig_tree_memory(
    sizes: Sequence[int] = (250, 500, 1000, 2000),
    *,
    seed: int = 3,
    tree_style: str = "dfs",
) -> List[Record]:
    """F2: per-vertex memory vs n -- O(log n) (ours) vs Θ(√n) (EN16b)."""
    records: List[Record] = []
    for n in sizes:
        graph = random_connected_graph(n, seed=seed)
        tree = spanning_tree_of(graph, style=tree_style, seed=seed)
        net_ours = Network(graph)
        ours = build_distributed_tree_scheme(net_ours, tree, seed=seed)
        net_base = Network(graph)
        base = build_en16_tree_scheme(net_base, tree, seed=seed)
        records.append({
            "n": n,
            "memory_this_paper": ours.max_memory_words,
            "memory_en16b": base.max_memory_words,
            "log2_n": round(math.log2(n), 1),
            "sqrt_n": round(math.sqrt(n), 1),
        })
    return records


def fig_tree_sizes(
    sizes: Sequence[int] = (250, 500, 1000, 2000),
    *,
    seed: int = 3,
    tree_style: str = "dfs",
) -> List[Record]:
    """F3: label/table words vs n for both tree schemes."""
    records: List[Record] = []
    for n in sizes:
        graph = random_connected_graph(n, seed=seed)
        tree = spanning_tree_of(graph, style=tree_style, seed=seed)
        ours = build_distributed_tree_scheme(Network(graph), tree, seed=seed)
        base = build_en16_tree_scheme(Network(graph), tree, seed=seed)
        records.append({
            "n": n,
            "table_this_paper": ours.scheme.max_table_words(),
            "table_en16b": base.scheme.max_table_words(),
            "label_this_paper": ours.scheme.max_label_words(),
            "label_en16b": base.scheme.max_label_words(),
        })
    return records


def fig_stretch(
    n: int = 500,
    ks: Sequence[int] = (2, 3, 4),
    *,
    seed: int = 3,
    pairs: int = 250,
    epsilon: float = 0.05,
) -> List[Record]:
    """F4: measured stretch vs the 4k-3 bound, per k."""
    graph = random_connected_graph(n, seed=seed)
    pair_sample = sample_pairs(list(graph.nodes), pairs, seed=seed + 1)
    records: List[Record] = []
    for k in ks:
        report = build_distributed_scheme(graph, k, epsilon=epsilon, seed=seed)
        stretch = measure_stretch(report.scheme, graph, pair_sample)
        records.append({
            "k": k,
            "stretch_max": stretch.max_stretch,
            "stretch_mean": stretch.mean_stretch,
            "bound_4k_minus_3": 4 * k - 3,
            "table_words": report.scheme.max_table_words(),
        })
    return records


def fig_sizes_vs_k(
    n: int = 500,
    ks: Sequence[int] = (2, 3, 4),
    *,
    seed: int = 3,
    epsilon: float = 0.05,
) -> List[Record]:
    """F5: table (Õ(n^{1/k})) and label (O(k log n)) words vs k."""
    graph = random_connected_graph(n, seed=seed)
    records: List[Record] = []
    for k in ks:
        report = build_distributed_scheme(graph, k, epsilon=epsilon, seed=seed)
        records.append({
            "k": k,
            "table_max": report.scheme.max_table_words(),
            "table_mean": round(report.scheme.mean_table_words(), 1),
            "label_max": report.scheme.max_label_words(),
            "n^(1/k)": round(n ** (1 / k), 1),
            "k*log2(n)": round(k * math.log2(n), 1),
            "memory_words": report.max_memory_words,
        })
    return records


def fig_hopset(
    n: int = 1200,
    kappas: Sequence[int] = (1, 2, 3),
    *,
    seed: int = 3,
    epsilon: float = 0.1,
) -> List[Record]:
    """F6: hopset size / per-vertex storage / measured β vs κ (= 1/ρ)."""
    graph = random_connected_graph(n, seed=seed)
    hier = sample_hierarchy(list(graph.nodes), 2, seed=seed)
    virtual = sorted(hier.set_at(1), key=repr)
    records: List[Record] = []
    for kappa in kappas:
        net = Network(graph)
        oracle = VirtualGraphOracle(graph, virtual, default_hop_bound(n))
        build = build_hopset(net, oracle, kappa=kappa, seed=seed)
        beta = measure_hopbound(
            oracle.materialize(), build.hopset, epsilon, sample_sources=8
        )
        records.append({
            "kappa": kappa,
            "virtual_m": oracle.m,
            "hopset_size": build.hopset.size,
            "max_out_degree": build.hopset.max_out_degree(),
            "measured_beta": beta,
            "m^(1/kappa)": round(oracle.m ** (1 / kappa), 1),
        })
    return records


def fig_graph_rounds(
    sizes: Sequence[int] = (200, 400, 800),
    k: int = 3,
    *,
    seed: int = 3,
    epsilon: float = 0.05,
) -> List[Record]:
    """F7: general-scheme construction rounds and memory vs n.

    ``virtual_size`` / ``hopset_size`` / ``beta`` are the inputs of the
    closed-form ``clusters/level-2-schedule`` charge
    (:mod:`repro.core.high_levels`), most of the rounds column: they follow
    the sampled hierarchy's coins, not n, which is why rounds are not
    monotone in n.
    """
    records: List[Record] = []
    for n in sizes:
        graph = random_connected_graph(n, seed=seed)
        report = build_distributed_scheme(graph, k, epsilon=epsilon, seed=seed)
        records.append({
            "n": n,
            "rounds_parallel": report.rounds_parallel_estimate,
            "rounds_sequential": report.rounds_sequential,
            "memory_max": report.max_memory_words,
            "memory_mean": round(report.mean_memory_words, 1),
            "table_max": report.scheme.max_table_words(),
            "sqrt_n": round(math.sqrt(n), 1),
            "virtual_size": report.virtual_size,
            "hopset_size": report.hopset_size,
            "beta": report.beta,
        })
    return records


def fig_tree_styles(
    n: int = 800,
    *,
    seed: int = 3,
) -> List[Record]:
    """F9: sensitivity of the tree-routing construction to the tree shape.

    Theorem 2's bounds are uniform over tree shapes (the whole point: the
    routing tree's own depth never enters the bound, only the network's D).
    The sweep builds the scheme for spanning trees of very different depths
    of one network and shows rounds/memory staying in one band.
    """
    graph = random_connected_graph(n, seed=seed)
    records: List[Record] = []
    for style in ("bfs", "shortest-path", "random", "dfs"):
        tree = spanning_tree_of(graph, style=style, seed=seed)
        net = Network(graph)
        build = build_distributed_tree_scheme(net, tree, seed=seed)
        records.append({
            "style": style,
            "tree_depth": max(depths(tree).values()),
            "rounds": build.rounds,
            "memory": build.max_memory_words,
            "label_max": build.scheme.max_label_words(),
        })
    return records


def fig_multitree(
    n: int = 400,
    tree_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    seed: int = 3,
) -> List[Record]:
    """F8: parallel multi-tree rounds vs the naive per-tree sum."""
    graph = random_connected_graph(n, seed=seed)
    records: List[Record] = []
    for s in tree_counts:
        trees = {
            f"t{i}": spanning_tree_of(graph, style="random", seed=seed + i)
            for i in range(s)
        }
        net = Network(graph)
        build = build_many_tree_schemes(net, trees, seed=seed)
        records.append({
            "trees": s,
            "rounds_parallel": build.rounds_parallel,
            "rounds_sequential_sum": build.rounds_sequential,
            "sqrt_sn_log": round(math.sqrt(s * n) * math.log2(n), 0),
            "q": round(build.q, 4),
        })
    return records
