"""Every connected graph on 2 to 7 vertices: the exhaustive atlas.

``networkx.graph_atlas_g()`` is the graph atlas of Read and Wilson's *An
Atlas of Graphs* (shipped with networkx): all 1,253 graphs on up to seven
vertices, one per isomorphism class.  Its 995 connected graphs on two or
more vertices hold every small shape a sampled family can miss: paths,
stars, cycles, cliques, bridges, pendant vertices, twins.  On each, unit
weights:

* the Appendix B scheme builds at k = 2 and k = 3; every ordered pair is
  served by ``ServeEngine`` exactly as ``route_in_graph`` routes it, and
  within the build's ``stretch_bound`` of the shortest path;
* the tree scheme of Theorem 2 builds on a DFS spanning tree, and the
  engine walks the unique tree path between every ordered pair;
* k = 1 is an ``InputError``, not a build.
"""

from collections import Counter

import networkx as nx
import pytest

from repro.congest.network import Network
from repro.core.build import build_distributed_scheme
from repro.errors import InputError
from repro.graphs import spanning_tree_of
from repro.graphs.trees import tree_path
from repro.routing.router import route_in_graph, route_in_tree
from repro.serve import ServeEngine, compile_scheme
from repro.treerouting.scheme import build_distributed_tree_scheme

ATLAS = [(index, graph) for index, graph in enumerate(nx.graph_atlas_g())
         if graph.number_of_nodes() >= 2 and nx.is_connected(graph)]


def _all_pairs(graph):
    return [(u, v) for u in graph for v in graph]


def test_atlas_holds_every_connected_graph_on_2_to_7_vertices():
    # Connected graphs per vertex count (OEIS A001349).
    assert Counter(g.number_of_nodes() for _, g in ATLAS) == {
        2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("k", (2, 3))
def test_graph_scheme_serves_every_pair_like_the_router(k):
    for index, graph in ATLAS:
        report = build_distributed_scheme(graph, k, seed=index)
        scheme = report.scheme
        pairs = _all_pairs(graph)
        served = ServeEngine(compile_scheme(scheme, graph),
                             cache_size=0).route_many(pairs)
        assert not served.errors, (index, served.errors)
        hops = dict(nx.all_pairs_shortest_path_length(graph))
        for (u, v), result in zip(pairs, served):
            routed = route_in_graph(scheme, graph, u, v)
            assert (result.path, result.length) == \
                (routed.path, routed.length), (index, u, v)
            assert result.length <= report.stretch_bound * hops[u][v] + 1e-9, \
                (index, u, v, result.length, hops[u][v])


def test_tree_scheme_walks_the_tree_path_between_every_pair():
    for index, graph in ATLAS:
        tree = spanning_tree_of(graph, style="dfs", seed=index)
        scheme = build_distributed_tree_scheme(
            Network(graph), tree, seed=index).scheme
        pairs = _all_pairs(graph)
        served = ServeEngine(compile_scheme(scheme, graph),
                             cache_size=0).route_many(pairs)
        assert not served.errors, (index, served.errors)
        for (u, v), result in zip(pairs, served):
            path = tree_path(tree, u, v)
            assert result.path == route_in_tree(scheme, u, v).path == path, \
                (index, u, v)
            assert result.length == len(path) - 1, (index, u, v)


def test_k1_is_refused_on_every_graph():
    for index, graph in ATLAS:
        with pytest.raises(InputError, match="k >= 2"):
            build_distributed_scheme(graph, 1)
