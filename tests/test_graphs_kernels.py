"""The kernel layer of ``repro.graphs`` held to its specification.

``Adjacency`` + the five path kernels and ``tree_profile`` + its views are
compared against ``tests/reference_kernels.py`` (PR 18's code, verbatim) on
random inputs, pinned byte for byte by goldens taken on the parent commit,
and kept from being rebuilt per source by a call-count test.  This file
also runs under ``PYTHONHASHSEED=random`` in CI: nothing here may lean on
``set`` order.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.trees as trees_module
from repro.congest import Network
from repro.core.build import build_distributed_scheme
from repro.errors import InputError
from repro.graphs import (
    Adjacency,
    bounded_bellman_ford,
    children_map,
    depths,
    dijkstra,
    nearest_in_set,
    random_connected_graph,
    tree_distance,
    tree_path,
    tree_profile,
)
from repro.graphs.paths import shortest_path_hops
from repro.routing.serialization import graph_scheme_to_dict
from repro.tz import build_centralized_scheme

from . import reference_kernels as ref

INF = float("inf")

ID_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"t{i}"),
}
WEIGHTS = {
    # what every generator assigns: ties are measure-zero
    "float": st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    # ties everywhere: every tie-break rule is exercised
    "small-int": st.integers(min_value=1, max_value=3),
    # no ``weight`` attribute at all: the 1.0 default
    "absent": st.none(),
}


@st.composite
def connected_graphs(draw, max_size=12):
    """A random connected graph: a random tree plus random chords, with the
    vertices and the edges inserted in a drawn order (``neighbors`` order,
    the order ties resolve in, follows insertion)."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    name = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in chords if a != b}
    graph = nx.Graph()
    graph.add_nodes_from(name(i) for i in draw(st.permutations(range(n))))
    for a, b in draw(st.permutations(sorted(edges))):
        w = draw(weight)
        if w is None:
            graph.add_edge(name(a), name(b))
        else:
            graph.add_edge(name(a), name(b), weight=w)
    return graph


def some_nodes(draw, graph, max_size=3):
    return draw(st.lists(st.sampled_from(list(graph.nodes)), min_size=1,
                         max_size=max_size, unique=True))


def both_forms(graph):
    return (graph, Adjacency.of(graph))


def same_dicts(got, want):
    """Equal as mappings *and* in the insertion order callers iterate in."""
    return got == want and list(got) == list(want)


# ---------------------------------------------------------------------------
# Path kernels against the reference
# ---------------------------------------------------------------------------

class TestAdjacency:
    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_rows_mirror_the_graph(self, graph):
        rows = Adjacency.of(graph).rows
        assert list(rows) == list(graph.nodes)
        for u in graph.nodes:
            assert [v for v, _, _ in rows[u]] == list(graph.neighbors(u))
            for v, weight, tie in rows[u]:
                assert weight == float(graph[u][v].get("weight", 1.0))
                assert type(weight) is float and tie == repr(v)

    def test_of_returns_a_snapshot_unchanged(self):
        adj = Adjacency.of(nx.path_graph(3))
        assert Adjacency.of(adj) is adj

    def test_snapshot_is_immutable(self):
        adj = Adjacency.of(nx.path_graph(3))
        with pytest.raises(TypeError):
            adj.rows[0] = ()
        with pytest.raises(AttributeError):
            adj.cache = {}

    def test_snapshot_is_a_value_not_a_view(self):
        graph = nx.path_graph(3)
        adj = Adjacency.of(graph)
        graph.add_edge(0, 2, weight=0.5)
        assert dijkstra(adj, [0])[0][2] == 2.0
        assert dijkstra(graph, [0])[0][2] == 0.5


class TestPathKernelsEqualReference:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_dijkstra(self, data):
        graph = data.draw(connected_graphs())
        sources = some_nodes(data.draw, graph)
        radius = data.draw(st.floats(min_value=0.0, max_value=12.0))
        blocked = set(data.draw(st.lists(st.sampled_from(list(graph.nodes)),
                                         max_size=3)))
        # The callers' shapes: a cluster's per-vertex bound d(v, A_{i+1})
        # (infinite at the top level) and a cover's closed ball.
        bound = {v: data.draw(st.one_of(st.floats(min_value=0.0, max_value=12.0),
                                        st.just(INF)))
                 for v in graph.nodes}
        predicates = (
            None,
            lambda v, d: d < radius,
            lambda v, d: v not in blocked,
            lambda v, d: d < bound[v],
            lambda v, d: d <= radius,
        )
        for predicate in predicates:
            want = ref.dijkstra(graph, sources, predicate=predicate)
            for form in both_forms(graph):
                dist, parent = dijkstra(form, sources, predicate=predicate)
                assert same_dicts(dist, want[0]) and same_dicts(parent, want[1])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_nearest_in_set(self, data):
        graph = data.draw(connected_graphs())
        targets = some_nodes(data.draw, graph, max_size=4)
        want_dist, want_owner = ref.nearest_in_set(graph, targets)
        for form in both_forms(graph):
            dist, owner = nearest_in_set(form, targets)
            assert same_dicts(dist, want_dist) and same_dicts(owner, want_owner)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_bounded_bellman_ford(self, data):
        graph = data.draw(connected_graphs())
        seeds = {s: data.draw(st.sampled_from([0.0, 0, 0.5, 2.0]))
                 for s in some_nodes(data.draw, graph)}
        hops = data.draw(st.integers(min_value=0, max_value=len(graph) + 1))
        limit = data.draw(st.floats(min_value=0.0, max_value=8.0))
        for forward_if in (None, lambda v, d: d < limit):
            want = ref.bounded_bellman_ford(graph, seeds, hops, forward_if=forward_if)
            for form in both_forms(graph):
                dist, parent, iterations = bounded_bellman_ford(
                    form, seeds, hops, forward_if=forward_if)
                assert same_dicts(dist, want[0]) and same_dicts(parent, want[1])
                assert iterations == want[2]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hop_counts(self, data):
        graph = data.draw(connected_graphs())
        source = data.draw(st.sampled_from(list(graph.nodes)))
        want = ref.hop_counts(graph, source)
        for form in both_forms(graph):
            assert same_dicts(shortest_path_hops(form, source), want)

    def test_disconnected_vertices_are_absent_or_infinite(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        for form in both_forms(graph):
            assert dijkstra(form, [0])[0] == {0: 0.0, 1: 1.0}
            assert nearest_in_set(form, [0]) == ({0: 0.0, 1: 1.0, 2: INF, 3: INF},
                                                 {0: 0, 1: 0, 2: None, 3: None})


KERNEL_CALLS = {
    "dijkstra": lambda g: dijkstra(g, ["x"]),
    "nearest_in_set": lambda g: nearest_in_set(g, ["x"]),
    "bounded_bellman_ford": lambda g: bounded_bellman_ford(g, {"x": 0.0}, 2),
    "hop_counts": lambda g: shortest_path_hops(g, "x"),
}


@pytest.mark.parametrize("form", ["graph", "adjacency"])
@pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
def test_unknown_source_fails_typed(kernel, form):
    """A source that is not a vertex is bad input, named in the message --
    not a ``NetworkXError`` (a graph) or a bare ``KeyError`` (a snapshot)."""
    graph = nx.path_graph(4)
    if form == "adjacency":
        graph = Adjacency.of(graph)
    with pytest.raises(InputError, match="'x'"):
        KERNEL_CALLS[kernel](graph)


# ---------------------------------------------------------------------------
# Satellite: bounded_bellman_ford's tie-break may not follow set order
# ---------------------------------------------------------------------------

def fan_parents():
    """``s - m0..m11 - t`` with unit weights and string ids: twelve equal
    candidates for ``parent["t"]`` (imported by the PYTHONHASHSEED
    subprocesses, so it must not depend on a fixture)."""
    graph = nx.Graph()
    for i in range(12):
        graph.add_edge("s", f"m{i}", weight=1.0)
        graph.add_edge(f"m{i}", "t", weight=1.0)
    dist, parent, _ = bounded_bellman_ford(graph, {"s": 0.0}, 3)
    return {"dist": dist, "parent": parent}


class TestFrontierOrder:
    def test_first_improved_vertex_wins_a_tie(self):
        out = fan_parents()
        assert out["parent"]["t"] == "m0" and out["dist"]["t"] == 2.0
        assert list(out["parent"]) == ["s"] + [f"m{i}" for i in range(12)] + ["t"]

    @pytest.mark.parametrize("hashseed", ["1", "2"])
    def test_parents_stable_across_hash_seeds(self, hashseed):
        """With a ``set`` frontier ``parent["t"]`` was m9 / m11 / m5 / m2 /
        m7 under hash seeds 0-4, and CI pins seed 0."""
        script = (
            "import json, sys\n"
            "from tests.test_graphs_kernels import fan_parents\n"
            "json.dump(fan_parents(), sys.stdout)\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == fan_parents()


# ---------------------------------------------------------------------------
# tree_profile and its views against the reference
# ---------------------------------------------------------------------------

@st.composite
def parent_maps(draw, max_size=40):
    """A random rooted tree (vertex i hangs under one of 0..i-1), under a
    drawn id kind and a drawn key order."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    name = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    above = {0: None}
    for v in range(1, n):
        above[v] = draw(st.integers(min_value=0, max_value=v - 1))
    return {
        name(v): None if above[v] is None else name(above[v])
        for v in draw(st.permutations(range(n)))
    }


class TestTreeProfileEqualsReference:
    @given(parent_maps())
    @settings(max_examples=120, deadline=None)
    def test_profile_fields(self, parent):
        profile = tree_profile(parent)
        assert profile.root == ref.tree_root(parent)
        assert same_dicts(profile.children, ref.children_map(parent))
        assert profile.preorder[::-1] == ref.postorder(parent)
        assert same_dicts(profile.sizes, ref.subtree_sizes(parent))
        assert same_dicts(profile.heavy, ref.heavy_children(parent))
        assert same_dicts(profile.intervals, ref.dfs_intervals(parent))
        lights = ref.light_edge_lists(parent)
        assert list(profile.light_edges) == list(lights)
        assert {v: list(e) for v, e in profile.light_edges.items()} == lights

    @given(parent_maps())
    @settings(max_examples=60, deadline=None)
    def test_public_views(self, parent):
        assert same_dicts(children_map(parent), ref.children_map(parent))
        assert same_dicts(depths(parent), ref.depths(parent))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_malformed_maps_raise_the_reference_error(self, data):
        """Two roots, a dangling parent, a cycle: ``tree_profile`` (and so
        every view over it) raises what the reference ``depths`` -- the one
        reference function that checks all three -- raises."""
        parent = dict(data.draw(parent_maps(max_size=12)))
        defect = data.draw(st.sampled_from(["two-roots", "dangling", "cycle"]))
        if defect == "two-roots":
            parent["extra-root"] = None
        elif defect == "dangling":
            parent["orphan"] = "nowhere"
        else:
            parent["c1"], parent["c2"] = "c2", "c1"
        with pytest.raises(InputError) as want:
            ref.depths(parent)
        for view in (tree_profile, depths):
            with pytest.raises(InputError) as got:
                view(parent)
            assert str(got.value) == str(want.value)

    def test_children_map_still_takes_a_forest(self):
        """It checks what it always checked (dangling parents), nothing
        more: two roots are a legitimate forest to it."""
        assert children_map({0: None, 1: None, 2: 1}) == {0: [], 1: [2], 2: []}
        with pytest.raises(InputError):
            children_map({0: None, 1: 7})


class TestTreePaths:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_path_equals_reference(self, data):
        parent = data.draw(parent_maps())
        nodes = list(parent)
        u = data.draw(st.sampled_from(nodes))
        v = data.draw(st.sampled_from(nodes))
        assert tree_path(parent, u, v) == ref.tree_path(parent, u, v)

    def test_queries_walk_up_and_never_profile_the_tree(self, monkeypatch):
        """O(depth) per query: 100 ``tree_distance`` calls build no
        ``children_map`` (the parent built one, repr-sorted, per call)."""
        calls = []
        real = trees_module.children_map
        monkeypatch.setattr(trees_module, "children_map",
                            lambda parent: calls.append(1) or real(parent))
        parent = {0: None, **{v: (v - 1) // 2 for v in range(1, 200)}}
        total = sum(tree_distance(parent, lambda a, b: 1.0, v, 199 - v)
                    for v in range(100))
        assert calls == []
        assert total == sum(len(ref.tree_path(parent, v, 199 - v)) - 1
                            for v in range(100))

    def test_vertex_outside_the_tree_is_a_key_error(self):
        parent = {0: None, 1: 0, 2: 0}
        for u, v in ((9, 1), (1, 9)):
            with pytest.raises(KeyError):
                ref.tree_path(parent, u, v)
            with pytest.raises(KeyError):
                tree_path(parent, u, v)

    @pytest.mark.parametrize("parent", [
        {0: None, 1: 2, 2: 1},          # 1 and 2 chase each other
        {0: None, 1: 0, 2: 7},          # 7 is nobody
        {0: None, 1: None, 2: 0, 3: 1},  # two trees
    ], ids=["cycle", "dangling", "two-roots"])
    def test_malformed_map_fails_typed_and_terminates(self, parent):
        with pytest.raises(InputError):
            ref.tree_path(parent, 2, 0)
        with pytest.raises(InputError):
            tree_path(parent, 2, 3 if 3 in parent else 0)


# ---------------------------------------------------------------------------
# Goldens (taken on the parent commit) and call counts
# ---------------------------------------------------------------------------

def sha256_of(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


#: sha256 of json.dumps(graph_scheme_to_dict(build_centralized_scheme(
#: random_connected_graph(300, seed=s), 3, seed=s))), from PR 18's kernels.
#: Re-taken for scheme format 3 (PR 24) from scheme objects that the
#: format-2 encoder still hashed to the values pinned until then
#: (7622523..., fe642c7..., ca814ea...; CHANGES.md has the procedure).
CENTRALIZED_GOLDENS = {
    1: "846a4c25d96401135972add8292cb8e5d3d5400cd96234fdbda6888a25018a4b",
    2: "ef979129aedea57ab5789715618fac4ddcf94dc51a9e546af5746cd7a6ffd465",
    3: "b0a2f4860f81605f7c58246c4f34b0fbdef5e4b2861b309a22b4abe9e5920cf4",
}
#: sha256 of json.dumps(BuildReport.to_dict()) for random_connected_graph(
#: 150, seed=7), k=3, seed=7 on Network, from PR 18's kernels.
#: Re-taken when the report gained ``simulated_rounds`` and
#: ``charged_rounds``: the same dict without those two keys still hashes to
#: the value pinned until then (17928b8...; CHANGES.md has the procedure).
DISTRIBUTED_GOLDEN = "83b87cc1bac6f3ebc52a10747137663e7657127f30bad16bac5ea3ec7c738e9f"


@pytest.mark.parametrize("seed", sorted(CENTRALIZED_GOLDENS))
def test_centralized_scheme_is_byte_identical_to_the_parent(seed):
    graph = random_connected_graph(300, seed=seed)
    scheme = build_centralized_scheme(graph, 3, seed=seed)
    assert sha256_of(graph_scheme_to_dict(scheme)) == CENTRALIZED_GOLDENS[seed]


def test_distributed_build_report_is_byte_identical_to_the_parent():
    graph = random_connected_graph(150, seed=7)
    report = build_distributed_scheme(graph, 3, seed=7, net=Network(graph))
    assert sha256_of(report.to_dict()) == DISTRIBUTED_GOLDEN


def test_centralized_build_snapshots_once_and_profiles_each_tree_once(monkeypatch):
    """The point of the layer: one O(n + m) snapshot under all k + n
    explorations and one traversal per cluster tree.  A caller that hands a
    kernel the graph inside a per-source loop shows up here as n builds."""
    snapshots, profiles = [], []
    real_init = Adjacency.__init__
    real_profile = trees_module.tree_profile

    def counting_init(self, graph):
        snapshots.append(graph)
        real_init(self, graph)

    def counting_profile(parent):
        profiles.append(parent)
        return real_profile(parent)

    monkeypatch.setattr(Adjacency, "__init__", counting_init)
    monkeypatch.setattr(trees_module, "tree_profile", counting_profile)
    monkeypatch.setattr("repro.tz.tree_scheme.tree_profile", counting_profile)
    graph = random_connected_graph(120, seed=5)
    scheme = build_centralized_scheme(graph, 3, seed=5)
    assert snapshots == [graph]
    assert len(profiles) == len(scheme.tree_schemes) == 120


def test_centralized_build_heaps_only_vertices_it_expands(monkeypatch):
    """Limited Dijkstra tests its predicate on relaxation: a vertex outside
    the cluster gets a distance but is never pushed.  Testing it on the pop
    instead pushed 20,281 times here."""
    pushes = []
    real_push = heapq.heappush

    def counting_push(heap, item):
        pushes.append(item)
        real_push(heap, item)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    build_centralized_scheme(random_connected_graph(300, seed=1), 3, seed=1)
    assert len(pushes) == 7853
