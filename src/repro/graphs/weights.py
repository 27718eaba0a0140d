"""Edge-weight quantization for the standard CONGEST model (Section 2).

The CONGEST RAM model lets a message carry one edge weight; the *standard*
CONGEST model only allows O(log n) bits.  The paper's remedy (end of
Section 2): "we round all edge weights to the closest power of (1+ε).  As a
result, each edge weight can now be represented with
O(log log Λ + log 1/ε) bits", so the construction time becomes proportional
to ``log_n log Λ`` — in contrast to all previous solutions, whose running
time is at least *linear* in log Λ.

This module implements that rounding and the bit accounting, and the
ablation :func:`repro.analysis.ablation_aspect_ratio` demonstrates
the claim: quantized weights keep message bit-width flat while the aspect
ratio Λ grows by orders of magnitude, and the routing scheme built on the
quantized graph loses only a (1+ε) factor of stretch.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Tuple

import networkx as nx

from ..errors import InputError

NodeId = Hashable


def assign_log_uniform_weights(
    graph: nx.Graph, low: float, high: float, *, seed: int = 0
) -> nx.Graph:
    """Re-weight a copy of ``graph`` with log-uniform weights in [low, high].

    Uniform sampling of a wide range produces almost no mass near the
    bottom, so its realized aspect ratio stays small; log-uniform sampling
    actually realizes Λ ≈ high/low, which is what the aspect-ratio
    experiments need.
    """
    if not (0 < low <= high):
        raise InputError("need 0 < low <= high")
    rng = random.Random(f"logw/{seed}")
    out = graph.copy()
    lo, hi = math.log(low), math.log(high)
    for u, v, data in out.edges(data=True):
        data["weight"] = math.exp(rng.uniform(lo, hi))
    return out


def aspect_ratio(graph: nx.Graph) -> float:
    """Λ: the ratio of the largest to the smallest edge weight."""
    weights = [float(d.get("weight", 1.0)) for _, _, d in graph.edges(data=True)]
    if not weights:
        raise InputError("graph has no edges")
    low, high = min(weights), max(weights)
    if low <= 0:
        raise InputError("weights must be positive")
    return high / low


def quantize_weight(weight: float, epsilon: float) -> float:
    """Round ``weight`` up to the nearest power of ``1 + epsilon``.

    Rounding *up* keeps quantized distances an over-estimate of true
    distances by at most (1+ε) per edge, hence (1+ε) per path -- the
    one-sided error the paper's analysis absorbs into ε-rescaling.
    """
    if weight <= 0:
        raise InputError("weights must be positive")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    base = 1.0 + epsilon
    exponent = math.ceil(math.log(weight, base) - 1e-12)
    return base ** exponent


def quantize_weights(graph: nx.Graph, epsilon: float) -> nx.Graph:
    """A copy of ``graph`` with every weight rounded to a power of 1+ε."""
    out = graph.copy()
    for u, v, data in out.edges(data=True):
        data["weight"] = quantize_weight(float(data.get("weight", 1.0)), epsilon)
    return out


def encoded_weight_bits(graph: nx.Graph, epsilon: float) -> int:
    """Bits per quantized weight: O(log log Λ + log 1/ε).

    Exponents live in a range of size ``log_{1+ε} Λ``; encoding an exponent
    takes ``ceil(log2(range + 1)) + 1`` bits (sign included).
    """
    lam = aspect_ratio(graph)
    exponent_range = math.log(lam, 1.0 + epsilon) + 1.0
    return math.ceil(math.log2(exponent_range + 1)) + 1


def raw_weight_bits(graph: nx.Graph, resolution: float = None) -> int:
    """Bits to send an *exact* weight at the graph's own resolution:
    Θ(log Λ) -- what previous solutions pay per message.

    ``resolution`` defaults to the smallest edge weight (fixed-point
    encoding with that unit).
    """
    weights = [float(d.get("weight", 1.0)) for _, _, d in graph.edges(data=True)]
    if not weights:
        raise InputError("graph has no edges")
    unit = resolution if resolution is not None else min(weights)
    return math.ceil(math.log2(max(weights) / unit + 1)) + 1


def quantization_stretch_bound(epsilon: float) -> float:
    """Distances in the quantized graph over-estimate by at most 1+ε."""
    return 1.0 + epsilon


def quantized_distance_sandwich(
    graph: nx.Graph, quantized: nx.Graph, u: NodeId, v: NodeId
) -> Tuple[float, float]:
    """(d_G(u,v), d_G'(u,v)) for tests: d <= d' <= (1+ε) d."""
    d = nx.dijkstra_path_length(graph, u, v, weight="weight")
    dq = nx.dijkstra_path_length(quantized, u, v, weight="weight")
    return d, dq
