"""Lemma 2's Bellman-Ford resumes from its fixpoint and equals a full rescan.

``hopset_bellman_ford`` seeds each E' sweep with only the estimates that
can still relax a neighbour.  :func:`full_rescan_bellman_ford` below is the
loop it replaced, kept verbatim (only the unpacking of
``relax_virtual_edges``' result gained the iteration count, and its
per-estimate meter adds became one ``add_each``), as the reference: every sweep scans every estimate.  Both run over the seven
differential topology families, with and without the approximate-cluster
gates, on the families' own weights, on unit weights and on tie-prone
weights whose sums land within ``1e-15`` of each other; ``est``,
``gparent`` and ``hvia`` must be equal, insertion order included.  The
reference gets the cluster rule as the two per-call closures it was
written for, the kernel as production's one gate, ``est < bound[v]`` over
:func:`repro.core.high_levels.cluster_bound`, so the matrix also holds the
precomputed bound to the rule it replaced.  The
kernel charges nothing; the pivot exploration of ``core/high_levels.py``
charges and meters it, and must leave the network exactly as the reference
with its own charges and memory did: the same phase log, memory groups and
high-water.

This file also runs under ``PYTHONHASHSEED=random`` in CI: the frontier is
built in ``est`` order, never in ``set`` order.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple

import networkx as nx
import pytest

from repro.congest import Network
from repro.core.high_levels import approximate_pivot_distances, cluster_bound
from repro.errors import InputError
from repro.graphs import VirtualGraphOracle, bounded_bellman_ford, default_hop_bound
from repro.hopsets import build_hopset, hopset_bellman_ford
from repro.hopsets.bounded_bf import ExplorationState, NodeId
from repro.telemetry import phase

from .differential.harness import TOPOLOGIES

INF = math.inf
EPSILON = 0.05
SEEDS = range(3)
TIE_PRONE = (0.1, 0.2, 0.3, 0.7)


def full_rescan_bellman_ford(
    net,
    oracle,
    hopset,
    sources,
    beta,
    *,
    forward_if_virtual=None,
    forward_if_graph=None,
    final_graph_sweep=True,
    mem_prefix="bf",
    charge=True,
):
    """The full-rescan loop, verbatim from before explorations resumed."""
    if beta < 1:
        raise InputError("beta must be >= 1")
    state = ExplorationState()
    for s, d0 in sources.items():
        state.est[s] = float(d0)
        state.gparent[s] = None

    def gate(v: NodeId, value: float) -> bool:
        if oracle.is_virtual(v):
            return forward_if_virtual(v, value) if forward_if_virtual else True
        return forward_if_graph(v, value) if forward_if_graph else True

    alpha = hopset.max_out_degree()
    m = oracle.m
    d_bound = net.hop_diameter_upper_bound()
    log_n = max(1, int(math.log2(max(2, net.n))))

    for _ in range(beta):
        # -- E' step: B-bounded exploration in G --------------------------------
        dist, parent, _ = oracle.relax_virtual_edges(state.est, forward_if=gate)
        for v, d in dist.items():
            if d < state.value(v) - 1e-15:
                state.est[v] = d
                state.gparent[v] = parent[v]
                state.hvia.pop(v, None)
        if charge:
            net.charge_rounds(oracle.hop_bound)

        # -- H step: owners broadcast estimates + owned edges --------------------
        improved: Dict[NodeId, Tuple[float, Tuple[NodeId, NodeId, bool]]] = {}
        for owner, bucket in hopset.owned.items():
            for other, weight in bucket.items():
                d_owner = state.value(owner)
                if d_owner < INF and gate(owner, d_owner):
                    cand = d_owner + weight
                    if cand < state.value(other) and cand < improved.get(
                        other, (INF, None)
                    )[0]:
                        improved[other] = (cand, (owner, other, False))
                d_other = state.value(other)
                if d_other < INF and gate(other, d_other):
                    cand = d_other + weight
                    if cand < state.value(owner) and cand < improved.get(
                        owner, (INF, None)
                    )[0]:
                        improved[owner] = (cand, (owner, other, True))
        for v, (cand, via) in improved.items():
            if cand < state.value(v) - 1e-15:
                state.est[v] = cand
                state.gparent[v] = None
                state.hvia[v] = via
        if charge:
            net.charge_rounds((m * max(1, alpha) + d_bound) * log_n)

    if final_graph_sweep:
        dist, parent, _ = oracle.relax_virtual_edges(state.est, forward_if=gate)
        for v, d in dist.items():
            if d < state.value(v) - 1e-15:
                state.est[v] = d
                state.gparent[v] = parent[v]
                state.hvia.pop(v, None)
        if charge:
            net.charge_rounds(oracle.hop_bound)

    # Memory: estimate + parent + hopset adjacency already charged at build.
    net.add_each(f"{mem_prefix}/estimates", state.est, 2)
    return state


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def reweighted(graph: nx.Graph, weights: str, seed: int) -> nx.Graph:
    graph = graph.copy()
    if weights == "unit":
        for u, v in graph.edges:
            graph[u][v]["weight"] = 1.0
    elif weights == "tie-prone":
        rng = random.Random(seed * 31 + 7)
        for u, v in graph.edges:
            graph[u][v]["weight"] = rng.choice(TIE_PRONE)
    return graph


#: B as the builds pick it (at these sizes, capped at n: the first sweep
#: is exact) and B ~ sqrt(n), the regime of large n, where the H steps
#: lower estimates that later sweeps must carry on.
HOP_BOUNDS = {
    "default": default_hop_bound,
    "sqrt": lambda n: max(2, math.isqrt(n)),
}


class Instance:
    """A graph, every third vertex (by repr) virtual, a hopset over them."""

    def __init__(self, graph: nx.Graph, seed: int, hop_bound: int) -> None:
        self.graph = graph
        self.virtual = sorted(graph.nodes, key=repr)[::3]
        self.oracle = VirtualGraphOracle(graph, self.virtual, hop_bound)
        self.hopset = build_hopset(Network(graph), self.oracle, kappa=2,
                                   seed=seed)

    def gates(self, sources):
        """The approximate-cluster gates against the (reference) approximate
        distances to ``sources``: ``(kernel's, reference's)``.  The kernel
        gets production's one gate over :func:`cluster_bound`; the reference
        the two closures ``core/high_levels.py`` passed before the fold."""
        limit = full_rescan_bellman_ford(
            Network(self.graph), self.oracle, self.hopset, sources, 3).est
        bound = cluster_bound(
            self.oracle, {v: limit.get(v, INF) for v in self.graph}, EPSILON)

        def forward_virtual(u, est):
            bound = limit.get(u, INF)
            return bound == INF or est < bound / (1.0 + EPSILON) ** 2

        def forward_graph(u, est):
            bound = limit.get(u, INF)
            return bound == INF or est < bound / (1.0 + EPSILON)

        return ({"forward_if": lambda v, d: d < bound[v]},
                {"forward_if_virtual": forward_virtual,
                 "forward_if_graph": forward_graph})


NO_GATES = ({}, {})


def both(instance: Instance, sources, beta: int, gates=NO_GATES):
    """Run the production loop and the reference (on a fresh network), each
    with its half of ``gates``; return ``(production state, reference
    state)``."""
    mine, theirs = gates
    got = hopset_bellman_ford(instance.oracle, instance.hopset, sources, beta,
                              **mine)
    want = full_rescan_bellman_ford(Network(instance.graph), instance.oracle,
                                    instance.hopset, sources, beta, **theirs)
    return got, want


def assert_same(got: ExplorationState, want: ExplorationState) -> None:
    for name in ("est", "gparent", "hvia"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert list(mine.items()) == list(theirs.items()), name


class SweepSpy:
    """Records every E' sweep: the frontier it was handed (None: every
    estimate), a copy of the estimates it started from, the distances it
    returned and the passes it ran."""

    def __init__(self, oracle: VirtualGraphOracle, monkeypatch) -> None:
        self.sweeps = []
        real = oracle.relax_virtual_edges

        def spy(estimates, *, forward_if=None, frontier=None):
            before = dict(estimates)
            dist, parent, used = real(estimates, forward_if=forward_if,
                                      frontier=frontier)
            self.sweeps.append((frontier, before, dist, used))
            return dist, parent, used

        monkeypatch.setattr(oracle, "relax_virtual_edges", spy)


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bound", sorted(HOP_BOUNDS))
@pytest.mark.parametrize("weights", ["own", "unit", "tie-prone"])
@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
def test_resumed_sweeps_equal_a_full_rescan(topo, weights, bound, monkeypatch):
    resumed = 0
    for seed in SEEDS:
        graph = reweighted(TOPOLOGIES[topo](seed), weights, seed)
        n = graph.number_of_nodes()
        assert n <= 200
        instance = Instance(graph, seed, HOP_BOUNDS[bound](n))
        level_set = {v: 0.0 for v in instance.virtual[::2]}
        # A cluster root outside the level set: inside it, its bound is 0
        # and the gated cluster is the root alone.
        root = [v for v in instance.virtual if v not in level_set][-1]
        gates = instance.gates(level_set)
        spy = SweepSpy(instance.oracle, monkeypatch)
        for sources, beta, pair in (
            ({root: 0.0}, 4, NO_GATES),   # one root, unlimited
            (level_set, 3, NO_GATES),     # pivots: a level set
            ({root: 0.0}, 4, gates),      # an approximate cluster
            ({root: 0.0}, 2, NO_GATES),   # two iterations
        ):
            assert_same(*both(instance, sources, beta, pair))
        monkeypatch.undo()
        resumed += sum(frontier is not None and len(frontier) < len(before)
                       for frontier, before, _, _ in spy.sweeps)
    # The rule is exercised: some sweep scanned fewer estimates than it held.
    assert resumed > 0


def test_gated_cluster_splits_the_ordinary_and_the_virtual_bound():
    """On a weighted 7-path with virtual vertices 0, 3, 6 and level set
    {0, 6}, the cluster of 3 reaches ordinary vertex 4 at 0.93, inside
    [d̂/(1+ε)², d̂/(1+ε)) for its d̂ = 1.0: 4 forwards under the ordinary
    bound (and so reaches 5), and would not under the virtual one.  The
    kernel's gate must resolve it as the reference's closures do."""
    graph = nx.path_graph(7)
    for (u, v), weight in zip(graph.edges, (1.0, 1.0, 1.0, 0.93, 0.5, 0.5)):
        graph[u][v]["weight"] = weight
    instance = Instance(graph, 0, default_hop_bound(7))
    assert instance.virtual == [0, 3, 6]
    level_set = {0: 0.0, 6: 0.0}
    got, want = both(instance, {3: 0.0}, 4, instance.gates(level_set))
    assert_same(got, want)
    limit = full_rescan_bellman_ford(Network(graph), instance.oracle,
                                     instance.hopset, level_set, 3).est
    banded = [v for v, est in got.est.items() if not instance.oracle.is_virtual(v)
              and limit[v] / (1.0 + EPSILON) ** 2 <= est < limit[v] / (1.0 + EPSILON)]
    assert banded == [4]
    assert 5 in got.est  # reached through 4 alone


def test_a_sweep_that_used_every_hop_is_followed_by_a_full_one(monkeypatch):
    """With B = 2 a sweep on a 27-vertex path stops at its hop bound, not at
    a fixpoint, so the estimates it left may still relax their neighbours:
    the next sweep must scan all of them, and the result is the rescan's."""
    graph = reweighted(TOPOLOGIES["path"](3), "tie-prone", 3)
    instance = Instance(graph, 3, hop_bound=2)
    spy = SweepSpy(instance.oracle, monkeypatch)
    assert_same(*both(instance, {instance.virtual[0]: 0.0}, 5))
    sweeps = spy.sweeps[: len(spy.sweeps) // 2]  # the production run's
    assert sweeps[0][0] is None
    stopped = [used == 2 for _, _, _, used in sweeps]
    assert any(stopped)
    for full, (frontier, _, _, _) in zip(stopped, sweeps[1:]):
        assert (frontier is None) == full


@pytest.mark.parametrize("weights", ["own", "unit", "tie-prone"])
@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
def test_pivot_exploration_charges_as_the_kernel_did(topo, weights):
    """``approximate_pivot_distances`` charges and meters the exploration
    the way the reference charged and metered itself, in the same phase,
    followed by the same ``pivots/approx-{i}`` store."""
    level, beta = 2, 3
    for seed in SEEDS:
        graph = reweighted(TOPOLOGIES[topo](seed), weights, seed)
        instance = Instance(graph, seed,
                            default_hop_bound(graph.number_of_nodes()))
        level_set = instance.virtual[::2]
        got_net, want_net = Network(graph), Network(graph)
        got = approximate_pivot_distances(
            got_net, instance.oracle, instance.hopset, level_set,
            beta, level_index=level)
        with phase(want_net, f"pivots/approx-{level}"):
            want = full_rescan_bellman_ford(
                want_net, instance.oracle, instance.hopset,
                {a: 0.0 for a in sorted(level_set, key=repr)}, beta,
                charge=True, mem_prefix=f"pivots/{level}")
        want_net.store_each(f"pivots/approx-{level}",
                            dict.fromkeys(want_net.nodes(), 2))
        assert got == {v: want.value(v) for v in want_net.nodes()}
        assert got_net.metrics.fingerprint() == want_net.metrics.fingerprint()
        assert got_net.memory_by_group() == want_net.memory_by_group()
        assert got_net.max_memory() == want_net.max_memory()


def expected_frontier(sweep, after_h_step, oracle):
    """The documented rule, recomputed from what one sweep saw and returned
    and what the next one starts from: None after a sweep that used every
    hop, else, in estimate order, the vertices the H step lowered and the
    neighbours of those whose improvement the ``1e-15`` rule held back."""
    _, before, dist, used = sweep
    if used == oracle.hop_bound:
        return None, 0
    applied = dict(before)
    held = set()
    for v, d in dist.items():
        old = before.get(v, INF)
        if d < old - 1e-15:
            applied[v] = d
        elif d < old:
            held.add(v)
    due = {u for v in held for u, _w, _tie in oracle.adjacency.rows[v]}
    due.update(v for v, d in after_h_step.items() if d < applied.get(v, INF))
    return [v for v in after_h_step if v in due], len(held)


def test_each_frontier_follows_the_rule(monkeypatch):
    """Every resumed sweep is handed exactly the documented frontier, in
    estimate order, on the tie-prone families at B ~ sqrt(n), where
    sweeps do hold improvements back (0.1 + 0.2 against 0.3: sums of the
    same weights in another order differ in the last bit).  The equality
    matrix above cannot see a lost held-back neighbour, since those
    improvements are never applied; this test can."""
    held = resumed = 0
    for topo in sorted(TOPOLOGIES):
        for seed in SEEDS:
            graph = reweighted(TOPOLOGIES[topo](seed), "tie-prone", seed)
            instance = Instance(graph, seed,
                                HOP_BOUNDS["sqrt"](graph.number_of_nodes()))
            spy = SweepSpy(instance.oracle, monkeypatch)
            hopset_bellman_ford(instance.oracle, instance.hopset,
                                {instance.virtual[-1]: 0.0}, 4)
            monkeypatch.undo()
            for sweep, following in zip(spy.sweeps, spy.sweeps[1:]):
                want, held_here = expected_frontier(sweep, following[1],
                                                    instance.oracle)
                assert following[0] == want
                held += held_here
                resumed += want is not None
    assert held > 0 and resumed > 0


def test_frontier_must_name_sources():
    graph = nx.path_graph(4)
    with pytest.raises(InputError, match="not a source"):
        bounded_bellman_ford(graph, {0: 0.0}, 3, frontier=[0, 2])
    dist, parent, used = bounded_bellman_ford(graph, {0: 0.0, 3: 0.0}, 3,
                                              frontier=[])
    assert (dist, parent, used) == ({0: 0.0, 3: 0.0}, {0: None, 3: None}, 0)
