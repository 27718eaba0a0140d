"""Property-based test for the FloodMax round loop."""

from hypothesis import given, settings, strategies as st

from repro.congest import Network
from repro.graphs import random_connected_graph

from tests.differential.harness import floodmax


@given(st.tuples(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=10 ** 6),
))
@settings(max_examples=15, deadline=None)
def test_floodmax_consensus_property(case):
    n, seed = case
    graph = random_connected_graph(n, seed=seed)
    net = Network(graph)
    leaders = set(floodmax(net).values())
    assert leaders == {max(graph.nodes, key=repr)}
