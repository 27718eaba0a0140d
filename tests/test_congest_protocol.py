"""Tests for FloodMax leader election written as a round loop over
``send_each`` / ``tick`` (the differential harness's ``floodmax`` kernel)."""

import pytest

from repro.congest import Network
from repro.graphs import random_connected_graph

from tests.differential.harness import floodmax


@pytest.fixture()
def net():
    return Network(random_connected_graph(60, seed=201))


class TestFloodMax:
    def test_everyone_agrees_on_leader(self, net):
        leaders = set(floodmax(net).values())
        assert len(leaders) == 1

    def test_leader_is_repr_maximum(self, net):
        leader = floodmax(net)
        expected = max(net.nodes(), key=repr)
        assert set(leader) == set(net.nodes())
        assert set(leader.values()) == {expected}
