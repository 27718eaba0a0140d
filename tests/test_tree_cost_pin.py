"""Per-tree cost pin: a cluster tree's build costs what it touches.

Theorem 3 builds one tree routing scheme per cluster tree, and most cluster
trees are tiny next to the network.  Building a 3-vertex tree on an
n=2000 network must therefore do no O(n) work per tree:

* the network-wide memory high-water is read in O(1), so the bank's
  all-vertex settle (``MemoryBank.high_waters``) never runs;
* the BFS tree's height is computed at most once per ``BfsTree``, not once
  per Lemma-1 broadcast;
* the local floods' wave schedule is computed once per ``TreePartition``,
  not once per ``local_flood`` call.

The spies count reads of the dicts those computations walk, so they catch
the cost however it comes back.  The wave schedule is also checked for
repr order, which must hold under any ``PYTHONHASHSEED``.

The network those trees run on is built once per operation, so its
construction is pinned too: ``Network(graph)`` compiles the port tables and
one arc map per vertex and allocates no per-arc object beyond the map
entry and its id (at most ``ARC_BYTES`` retained bytes per arc under
``tracemalloc``; a ``(src, dst)``-tuple-keyed arc dict alone costs more),
sorts each vertex's ports once, and makes a vertex's memory view on its
first ``mem`` call.
"""

import dataclasses
import tracemalloc

import pytest

import repro.congest.network as network_mod
import repro.treerouting.scheme as tree_scheme
from repro.congest import Network
from repro.congest.bfs import build_bfs_tree
from repro.congest.memory import MemoryBank
from repro.graphs import random_connected_graph
from repro.treerouting import build_distributed_tree_scheme


#: Retained bytes per arc ``Network(graph)`` may allocate at n=2000 (~140
#: with the per-vertex arc maps, ~280 with the tuple-keyed arc dict).
ARC_BYTES = 200


class CountingDict(dict):
    """A dict that counts whole-dict walks (``items``, ``values``,
    ``keys``, iteration)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.walks = 0

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()

    def keys(self):
        self.walks += 1
        return super().keys()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.fixture(scope="module")
def big_network():
    graph = random_connected_graph(2000, seed=30)
    net = Network(graph)
    return graph, net, build_bfs_tree(net)


def three_vertex_tree(graph):
    """A path ``root - a - b`` of graph edges, as a parent map."""
    root = min(graph.nodes)
    a = min(graph.neighbors(root))
    b = min(w for w in graph.neighbors(a) if w != root)
    return {root: None, a: root, b: a}


def test_small_tree_on_a_big_network_does_no_per_n_work(big_network, monkeypatch):
    graph, net, built = big_network
    settles = []
    real_high_waters = MemoryBank.high_waters
    monkeypatch.setattr(MemoryBank, "high_waters",
                        lambda bank: settles.append(1) or real_high_waters(bank))
    # A fresh BfsTree: no earlier read has cached its height.
    bfs = dataclasses.replace(built, depth=CountingDict(built.depth))
    partitions = []
    real_partition = tree_scheme.partition_tree

    def spied_partition(*args, **kwargs):
        part = real_partition(*args, **kwargs)
        part.local_forest.depth = CountingDict(part.local_forest.depth)
        partitions.append(part)
        return part

    monkeypatch.setattr(tree_scheme, "partition_tree", spied_partition)
    for salt in ("a", "b"):
        build = build_distributed_tree_scheme(
            net, three_vertex_tree(graph), seed=3, salt=salt, bfs=bfs,
            mem_prefix=f"pin/{salt}")
        assert build.max_memory_words > 0
    assert settles == []
    assert bfs.depth.walks <= 1
    assert [part.local_forest.depth.walks for part in partitions] == [1, 1]
    # ... and still exact: the O(1) peak is the largest settled high-water.
    assert build.max_memory_words == max(net.memory_high_water().values())


def test_wave_schedule_is_repr_ordered_by_local_depth():
    # Mixed int/str ids: repr order differs from both int and hash order.
    tree = {0: None, "b": 0, 10: 0, 2: 0, "a": 2, 3: 2, 11: 10}
    from repro.treerouting.sampling import partition_tree

    part = partition_tree(tree, q=1e-9)  # U(T) = {root}: one local tree
    assert part.waves == [[0], [10, 2]]
    assert part.waves is part.waves


def test_network_construction_allocates_no_per_arc_object(big_network, monkeypatch):
    graph = big_network[0]
    sorts = []
    monkeypatch.setattr(network_mod, "sorted",
                        lambda *a, **kw: sorts.append(1) or sorted(*a, **kw),
                        raising=False)
    tracemalloc.start()
    try:
        net = Network(graph)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained / (2 * graph.number_of_edges()) <= ARC_BYTES
    assert len(sorts) == net.n
    v = next(net.nodes())
    assert net.mem(v) is net.mem(v)
