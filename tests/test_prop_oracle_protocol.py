"""Property-based test for the protocol runner."""

from hypothesis import given, settings, strategies as st

from repro.congest import FloodMax, Network, run_protocol
from repro.graphs import random_connected_graph


@given(st.tuples(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=10 ** 6),
))
@settings(max_examples=15, deadline=None)
def test_floodmax_consensus_property(case):
    n, seed = case
    graph = random_connected_graph(n, seed=seed)
    net = Network(graph)
    bound = net.hop_diameter_upper_bound() + 1
    result = run_protocol(net, lambda v: FloodMax(bound))
    assert result.halted
    leaders = {p.leader for p in result.programs.values()}
    assert leaders == {max(graph.nodes, key=repr)}
