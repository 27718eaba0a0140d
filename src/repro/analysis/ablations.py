"""Ablation sweeps A1-A3 (see DESIGN.md's per-experiment index).

Each sweep turns one knob the paper's analysis fixes and returns records
like the figure sweeps of :mod:`repro.analysis.figures`; the defaults are
the workloads EXPERIMENTS.md documents, and ``python -m repro fig
ablation-<name>`` prints them.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from ..congest.network import Network
from ..core.build import build_distributed_scheme
from ..graphs.generators import random_connected_graph, spanning_tree_of
from ..graphs.trees import tree_distance
from ..graphs.weights import (
    assign_log_uniform_weights,
    encoded_weight_bits,
    quantize_weights,
    raw_weight_bits,
)
from ..routing.router import measure_stretch, route_in_tree, sample_pairs
from ..treerouting.scheme import build_distributed_tree_scheme
from ..tz.clusters import all_cluster_trees
from ..tz.hierarchy import sample_hierarchy
from .figures import Record


def ablation_aspect_ratio(
    n: int = 500,
    ranges: Sequence[Tuple[float, float]] = (
        (1.0, 10.0), (1.0, 1e3), (1.0, 1e6), (1.0, 1e9),
    ),
    *,
    seed: int = 9,
    epsilon: float = 0.1,
) -> List[Record]:
    """A1: independence of the aspect ratio Λ (Section 2, footnote 4).

    The paper: "our construction time is independent of Λ ... if one does
    care about the bit complexity, in our solution the construction time is
    proportional to log_n log Λ, as opposed to Ω(log Λ) in all previous
    solutions", achieved by rounding weights to powers of (1+ε).  The sweep
    grows Λ over orders of magnitude on an otherwise-identical workload and
    measures (a) the construction *rounds* of the tree-routing scheme --
    flat, because nothing in the algorithms iterates over weight scales --
    (b) the per-message weight bits with quantization (O(log log Λ)) vs
    exact encoding (Θ(log Λ)), and (c) the stretch cost of quantization
    (routing is exact in the quantized metric).
    """
    records: List[Record] = []
    base = random_connected_graph(n, seed=seed)
    for low, high in ranges:
        graph = assign_log_uniform_weights(base, low, high, seed=seed)
        quantized = quantize_weights(graph, epsilon)
        tree = spanning_tree_of(quantized, style="dfs", seed=seed)
        build = build_distributed_tree_scheme(Network(quantized), tree, seed=seed)

        # Routing stays exact w.r.t. the quantized metric.
        weight = lambda u, v: quantized[u][v]["weight"]
        rng = random.Random(0)
        worst = 1.0
        for _ in range(40):
            u, v = rng.sample(list(tree), 2)
            got = route_in_tree(build.scheme, u, v, weight_of=weight).length
            exact = tree_distance(tree, weight, u, v)
            worst = max(worst, got / exact if exact else 1.0)
        records.append({
            "lambda": f"{high / low:.0e}",
            "rounds": build.rounds,
            "weight_bits_quantized": encoded_weight_bits(quantized, epsilon),
            "weight_bits_exact": raw_weight_bits(graph),
            "routing_worst_ratio": worst,
        })
    return records


def ablation_q(n: int = 1000, *, seed: int = 21) -> List[Record]:
    """A2: the sampling rate q of the tree routing (Section 3).

    ``q`` splits the construction's work between the local phase (depth
    Õ(1/q) floods) and the global phase (Õ(qn + D) broadcast rounds per
    pointer-jump iteration).  The paper picks q = 1/√n to balance them.
    The sweep shows the U-shape: rounds blow up at both extremes, and
    q = 1/√n sits near the bottom; the artifacts are identical at every q
    (output independence is also property-tested).
    """
    graph = random_connected_graph(n, seed=seed)
    tree = spanning_tree_of(graph, style="dfs", seed=seed)
    balanced = 1.0 / math.sqrt(n)
    records: List[Record] = []
    for label, q in [
        ("q = 0.1/√n", min(0.9, 0.1 * balanced)),
        ("q = 1/√n (paper)", min(0.9, balanced)),
        ("q = 10/√n", min(0.9, 10.0 * balanced)),
        ("q = 0.9 (all local roots)", 0.9),
    ]:
        build = build_distributed_tree_scheme(Network(graph), tree, seed=seed, q=q)
        records.append({
            "q": label,
            "rounds": build.rounds,
            "ut_size": build.ut_size,
            "max_local_depth": build.partition.max_local_depth,
            "memory": build.max_memory_words,
        })
    return records


def ablation_epsilon(
    n: int = 400,
    k: int = 3,
    epsilons: Sequence[float] = (0.01, 0.05, 0.15),
    *,
    seed: int = 31,
    pairs: int = 150,
) -> List[Record]:
    """A3: the approximation slack ε of the high levels (Appendix B).

    ε controls the approximate-cluster sandwich ``C_{6ε} ⊆ C̃ ⊆ C``: smaller
    ε means approximate clusters hug the exact ones (better stretch, stretch
    bound 4k-3+O(kε)) but demands a better hopset approximation.  The sweep
    measures the realized stretch and how much of the exact clusters the
    approximate ones cover (``|C̃(v)| / |C(v)|`` over the scheme's roots).
    """
    graph = random_connected_graph(n, seed=seed)
    pair_sample = sample_pairs(list(graph.nodes), pairs, seed=seed + 1)
    hierarchy = sample_hierarchy(list(graph.nodes), k, seed=seed + 2)
    exact_trees = all_cluster_trees(graph, hierarchy)
    records: List[Record] = []
    for epsilon in epsilons:
        report = build_distributed_scheme(
            graph, k, epsilon=epsilon, seed=seed + 2, hierarchy=hierarchy
        )
        stretch = measure_stretch(report.scheme, graph, pair_sample)
        covered = sum(len(s.tables) for s in report.scheme.tree_schemes.values())
        total = sum(len(exact_trees[root].dist) for root in report.scheme.tree_schemes)
        records.append({
            "epsilon": epsilon,
            "stretch_max": stretch.max_stretch,
            "stretch_mean": stretch.mean_stretch,
            "cluster_coverage": round(covered / total, 4),
            "table_max": report.scheme.max_table_words(),
        })
    return records
