"""Unit tests for the serve workload models (seeded traffic)."""

import math
import random
from collections import Counter

import networkx as nx
import pytest

from repro.errors import InputError
from repro.graphs import random_connected_graph
from repro.serve import (
    WORKLOADS,
    adversarial_pairs,
    gravity_pairs,
    make_workload,
    uniform_pairs,
    zipf_pairs,
)


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(80, seed=83)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["uniform", "zipf", "gravity"])
    def test_same_seed_same_stream(self, graph, name):
        nodes = list(graph.nodes)
        a = make_workload(name, graph, nodes, 200, 5)
        b = make_workload(name, graph, nodes, 200, 5)
        c = make_workload(name, graph, nodes, 200, 6)
        assert a == b
        assert a != c
        assert len(a) == 200
        assert all(u != v for u, v in a)

    def test_rng_instance_accepted(self, graph):
        nodes = list(graph.nodes)
        assert uniform_pairs(nodes, 50, random.Random(9)) == \
               uniform_pairs(nodes, 50, 9)


def sample_loop(nodes, count, seed):
    """The specification of ``uniform_pairs``: one ``rng.sample`` per pair."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    nodes = list(nodes)
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


class TestUniformIsTheSampleStream:
    """The bulk word loop against ``random.sample``: both of its branches
    (a pool list up to 21 vertices, a selected set above), populations on
    either side of a power of two (where half the words are rejected), and
    the generator left in the state the per-pair loop leaves it in."""

    @pytest.mark.parametrize("n", [2, 3, 21, 22, 23, 1000, 2000, 2048, 2049])
    @pytest.mark.parametrize("count", [0, 1, 5, 3000])
    def test_int_seed(self, n, count):
        nodes = [f"v{i}" for i in range(n)]
        for seed in (0, 7, 2**40 + 3):
            assert uniform_pairs(nodes, count, seed) == sample_loop(nodes, count, seed)

    @pytest.mark.parametrize("n", [2, 3, 21, 22, 23, 1000, 2000, 2048, 2049])
    def test_passed_in_generator_ends_in_the_same_state(self, n):
        nodes = list(range(n))
        got_rng, want_rng = random.Random(11), random.Random(11)
        got_rng.random(), want_rng.random()  # mid-stream, not at a fresh seed
        for count in (1, 2, 999):
            assert uniform_pairs(nodes, count, got_rng) == \
                sample_loop(nodes, count, want_rng)
            assert got_rng.getstate() == want_rng.getstate()


class TestSkewProperties:
    def test_zipf_concentrates_destinations(self, graph):
        nodes = list(graph.nodes)
        zipf = Counter(v for _, v in zipf_pairs(nodes, 3000, 11, alpha=1.3))
        uni = Counter(v for _, v in uniform_pairs(nodes, 3000, 11))
        # The hottest Zipf destination dominates any uniform destination.
        assert zipf.most_common(1)[0][1] > 2 * uni.most_common(1)[0][1]

    def test_gravity_prefers_hubs(self):
        star = nx.star_graph(30)  # vertex 0 has degree 30, leaves 1
        counts = Counter()
        for u, v in gravity_pairs(star, 2000, 13):
            counts[u] += 1
            counts[v] += 1
        # The hub is ~30x likelier per endpoint than any leaf.
        assert counts[0] > 5 * max(counts[v] for v in star if v != 0)

    def test_adversarial_returns_worst_pairs(self, graph):
        # Score by an arbitrary deterministic "stretch": route_length
        # = 10x the exact distance for flagged sources, else exact.
        from repro.graphs.paths import dijkstra

        flagged = set(list(graph.nodes)[:10])

        def route_length(u, v):
            dist, _ = dijkstra(graph, [u])
            return dist[v] * (10.0 if u in flagged else 1.0)

        worst = adversarial_pairs(graph, 20, 17, route_length=route_length)
        assert len(worst) == 20
        # Worst-first ordering: every flagged (10x stretch) pair precedes
        # every unflagged one.
        flags = [u in flagged for u, _ in worst]
        assert any(flags)
        assert flags == sorted(flags, reverse=True)

    def test_adversarial_failures_sort_worst(self, graph):
        nodes = list(graph.nodes)
        dead = nodes[0]

        def route_length(u, v):
            return None if u == dead else 1.0

        worst = adversarial_pairs(graph, 5, 19, route_length=route_length,
                                  pool_factor=8)
        # Failed routes (infinite stretch) outrank every finite pair.
        assert any(u == dead for u, _ in worst)


class TestValidation:
    def test_too_few_nodes(self):
        with pytest.raises(InputError):
            uniform_pairs(["a"], 5)
        with pytest.raises(InputError):
            zipf_pairs(["a"], 5)
        with pytest.raises(InputError):
            gravity_pairs(nx.path_graph(1), 5)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_bad_zipf_alpha(self, graph, alpha):
        """NaN fails ``alpha <= 0`` and inf puts all weight on rank 0:
        either way every query would target one vertex."""
        with pytest.raises(InputError):
            zipf_pairs(list(graph.nodes), 5, alpha=alpha)

    def test_bad_pool_factor(self, graph):
        with pytest.raises(InputError):
            adversarial_pairs(graph, 5, pool_factor=0,
                              route_length=lambda u, v: 1.0)

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("count", [-3, 2.5, True, None])
    def test_bad_count(self, graph, name, count):
        """``-3`` used to return ``[]`` and ``True`` one pair."""
        with pytest.raises(InputError, match=f"count .*{count!r}"):
            make_workload(name, graph, list(graph.nodes), count, 0,
                          route_length=lambda u, v: 1.0)

    def test_unknown_workload(self, graph):
        with pytest.raises(InputError):
            make_workload("bursty", graph, list(graph.nodes), 5, 0)

    def test_adversarial_needs_route_length(self, graph):
        with pytest.raises(InputError):
            make_workload("adversarial", graph, list(graph.nodes), 5, 0)

    def test_registry_dispatch(self, graph):
        nodes = list(graph.nodes)
        for name in WORKLOADS:
            pairs = make_workload(name, graph, nodes, 10, 0,
                                  route_length=lambda u, v: 1.0)
            assert len(pairs) == 10
