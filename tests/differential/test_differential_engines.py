"""Randomized replay: the fast-path engine vs the reference.

Every case builds one graph, runs one workload on *both* engines, and
asserts the full observable fingerprint matches the reference oracle —
metrics (with phases), per-directed-edge message totals, phased charge
events, per-vertex memory high-waters, and every round's traffic and phase.

The full matrix is |TOPOLOGIES| x |PROTOCOLS| x |SEEDS| = 7 x 4 x 9 = 252
replays (>= the 200 the acceptance bar asks for); ``REPRO_DIFF_QUICK=1``
shrinks the seed axis for CI smoke runs.
"""

from __future__ import annotations

import pytest

from repro.congest import Network, ReferenceNetwork

from .harness import (
    PROTOCOLS,
    QUICK,
    TOPOLOGIES,
    build_topology,
    run_fingerprint,
)

SEEDS = range(2) if QUICK else range(9)

CASES = [
    pytest.param(topo, proto, seed, id=f"{topo}-{proto}-s{seed}")
    for topo in TOPOLOGIES
    for proto in PROTOCOLS
    for seed in SEEDS
]


@pytest.mark.parametrize("topo,proto,seed", CASES)
def test_engines_agree(topo, proto, seed):
    graph = build_topology(topo, seed)
    workload = PROTOCOLS[proto]
    ref = run_fingerprint(
        ReferenceNetwork, graph, workload, seed, edge_capacity=1
    )
    # Fresh graph objects per engine: engines must not depend on (or
    # mutate) shared graph state.
    candidate = run_fingerprint(
        Network, build_topology(topo, seed), workload, seed,
        edge_capacity=1,
    )
    for key in ref:
        assert candidate[key] == ref[key], (
            f"fastpath disagrees with reference on {key!r}"
        )
    # Every charged round reaches the listener, a wide message's slots too.
    for fp in (ref, candidate):
        assert sum(c[1] for c in fp["charges"]) == fp["metrics"]["charged_rounds"]


def test_case_matrix_is_large_enough():
    """The acceptance bar: >= 200 replays, >= 5 topologies, >= 3 protocols."""
    if QUICK:
        pytest.skip("quick mode runs a reduced matrix")
    assert len(TOPOLOGIES) >= 5
    assert len(PROTOCOLS) >= 3
    assert len(CASES) >= 200
