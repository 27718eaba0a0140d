"""Property-based tests (hypothesis) for the fast engine's CSR compiler.

Random connected weighted graphs — with deliberately mixed node-id types
(ints and strings), since port order is defined by ``repr`` — are compiled
by :class:`repro.congest.network.Network` and checked against the
:mod:`networkx` graph itself as the reference:

* ``neighbors`` / ``degree`` / ``weight`` / ``ports`` agree with the graph;
* arc (directed-edge) ids, read from the per-vertex arc maps, are a
  bijection onto the ``2m`` per-arc load counters and are numbered vertex
  by vertex in port order;
* the compact vertex ids (``_id_of`` / ``_node_of``) are inverse
  bijections.

The last two read the engine's private tables: they are the invariants
the capacity accounting and the memory bank index by.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.congest import Network

_REPR = repr


@st.composite
def connected_graphs(draw, min_size=2, max_size=40):
    """A random connected weighted graph with mixed int/str vertex ids."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    relabel = draw(st.booleans())
    graph = nx.Graph()
    names = [f"v{i}" if relabel and i % 2 else i for i in range(n)]
    graph.add_node(names[0])
    # Random spanning tree by parent arrays, plus extra random chords.
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        graph.add_edge(names[i], names[parent])
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = names[draw(st.integers(min_value=0, max_value=n - 1))]
        v = names[draw(st.integers(min_value=0, max_value=n - 1))]
        if u != v:
            graph.add_edge(u, v)
    for u, v in graph.edges:
        if draw(st.booleans()):
            graph[u][v]["weight"] = draw(
                st.floats(min_value=0.5, max_value=100.0,
                          allow_nan=False, allow_infinity=False)
            )
    return graph


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_agrees_with_networkx(graph):
    net = Network(graph)
    for v in graph.nodes:
        assert set(net.neighbors(v)) == set(graph.neighbors(v))
        assert net.degree(v) == graph.degree(v)
        for w in graph.neighbors(v):
            assert net.has_edge(v, w)
            assert net.weight(v, w) == float(graph[v][w].get("weight", 1.0))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_ports_are_repr_sorted_neighbors(graph):
    net = Network(graph)
    for v in graph.nodes:
        assert net.ports(v) == sorted(graph.neighbors(v), key=_REPR)
        assert list(net.neighbors(v)) == net.ports(v)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_arc_ids_are_a_bijection(graph):
    net = Network(graph)
    arcs = len(net._edge_load)
    seen = {}
    for v in graph.nodes:
        assert set(net._arc_map[v]) == set(graph.neighbors(v))
        for w, arc in net._arc_map[v].items():
            assert 0 <= arc < arcs
            assert arc not in seen
            seen[arc] = (v, w)
    assert set(seen) == set(range(arcs))
    assert arcs == 2 * graph.number_of_edges()


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_arc_ids_follow_csr_slot_order(graph):
    net = Network(graph)
    expected = 0
    for v in net.nodes():
        for w in net.ports(v):
            assert net._arc_map[v][w] == expected
            expected += 1
    assert expected == len(net._edge_load)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_compact_ids_are_inverse_bijections(graph):
    net = Network(graph)
    ids = [net._id_of[v] for v in net.nodes()]
    assert ids == list(range(net.n))
    for v in net.nodes():
        assert net._node_of[net._id_of[v]] == v
