"""Unit tests for the CONGEST network simulator and model enforcement.

Every behavioral test takes the ``engine`` fixture and therefore runs twice
— reference, fastpath — so the engines cannot drift on even the smallest
contract detail.
"""

import networkx as nx
import pytest

from repro.congest import Network, ReferenceNetwork
from repro.core.build import build_distributed_scheme
from repro.errors import CongestModelViolation, InputError
from repro.graphs import random_connected_graph
from repro.telemetry import phase
from repro.wordsize import words_of


def tiny_graph():
    g = nx.Graph()
    g.add_edge("a", "b", weight=2.0)
    g.add_edge("b", "c", weight=1.5)
    return g


class TestConstruction:
    def test_rejects_empty_graph(self, engine):
        with pytest.raises(InputError):
            engine(nx.Graph())

    def test_rejects_disconnected_graph(self, engine):
        g = nx.Graph()
        g.add_edge(1, 2)
        g.add_node(3)
        with pytest.raises(InputError):
            engine(g)

    def test_rejects_directed_graph(self, engine):
        g = nx.DiGraph()
        g.add_edge(1, 2)
        with pytest.raises(InputError):
            engine(g)

    def test_rejects_self_loop_naming_the_vertex(self, engine):
        # CONGEST has no edge (v, v): a self-loop would put v in ports(v)
        # and let send(v, v, ...) count as a message.
        g = random_connected_graph(60, seed=3)
        g.add_edge(17, 17, weight=1.0)
        with pytest.raises(InputError) as failure:
            engine(g)
        assert str(failure.value) == (
            "network requires a graph without self-loops; vertex 17 has one")

    def test_rejects_multigraph_naming_it(self, engine):
        # ``graph[u][v]`` of a multigraph maps edge keys to attribute dicts:
        # the weight-5 edge would silently read as 1.0.
        g = nx.MultiGraph()
        g.add_edge(0, 1, weight=5.0)
        g.add_edge(1, 2, weight=3.0)
        with pytest.raises(InputError) as failure:
            engine(g)
        assert str(failure.value) == (
            "network requires a simple graph, not a MultiGraph")

    def test_n_counts_vertices(self, engine):
        assert engine(tiny_graph()).n == 3

    @pytest.mark.parametrize("limits,says", [
        ({"message_word_limit": 0}, "message_word_limit >= 1, got 0"),
        ({"message_word_limit": -2}, "message_word_limit >= 1, got -2"),
        ({"edge_capacity": 0}, "edge_capacity >= 1, got 0"),
        ({"edge_capacity": -1}, "edge_capacity >= 1, got -1"),
    ], ids=["word-limit-0", "word-limit-negative", "capacity-0",
            "capacity-negative"])
    def test_rejects_limits_below_one(self, engine, limits, says):
        # A zero word limit divided by zero at the first send, a negative
        # one computed a wrong slot count, a zero capacity refused every
        # message.
        with pytest.raises(InputError) as failure:
            engine(tiny_graph(), **limits)
        assert str(failure.value) == f"network requires {says}"


def _public_surface(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_engines_expose_the_same_public_surface():
    """Every algorithm runs on either engine, so neither may offer a method
    or property the other lacks; instance attributes included."""
    from repro.congest import Network, ReferenceNetwork

    assert _public_surface(Network) == _public_surface(ReferenceNetwork)
    graph = tiny_graph()
    assert (_public_surface(Network(graph))
            == _public_surface(ReferenceNetwork(graph)))


class TestTopology:
    def test_weight_reads_attribute(self, engine):
        net = engine(tiny_graph())
        assert net.weight("a", "b") == 2.0

    def test_weight_defaults_to_one(self, engine):
        g = nx.Graph()
        g.add_edge(1, 2)
        assert engine(g).weight(1, 2) == 1.0

    def test_ports_are_sorted(self, engine):
        net = engine(tiny_graph())
        assert net.ports("b") == ["a", "c"]

    def test_neighbors_are_listed_in_port_order(self, engine):
        # networkx insertion order differs from port order at most vertices
        # of this graph; both engines list neighbours by port.
        net = engine(random_connected_graph(50, seed=3))
        for v in net.nodes():
            assert list(net.neighbors(v)) == net.ports(v)
            assert net.degree(v) == len(net.ports(v))

    def test_non_numeric_weight_is_read_lazily(self, engine):
        # The engines do not validate weights (``require_weighted_connected``
        # does, at the API boundary): construction succeeds and ``weight``
        # fails as ``float`` does, on both engines.
        g = tiny_graph()
        g["a"]["b"]["weight"] = "x"
        net = engine(g)
        with pytest.raises(ValueError):
            net.weight("a", "b")
        assert net.weight("b", "c") == 1.5

    def test_weight_of_a_non_edge_raises_key_error(self, engine):
        with pytest.raises(KeyError):
            engine(tiny_graph()).weight("a", "c")

    def test_hop_diameter_upper_bound(self, engine):
        net = engine(tiny_graph())
        assert net.hop_diameter_upper_bound() >= 2


class TestHopDiameterBoundOnce:
    """The topology is immutable, so the fast path runs the BFS behind
    ``hop_diameter_upper_bound`` once per network; a build asks for the
    bound from five sites (14 calls at n = 600, k = 3)."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_bfs_per_network_per_build(self, monkeypatch, k):
        calls = []
        real = nx.single_source_shortest_path_length

        def counting(graph, source, *args, **kwargs):
            calls.append(source)
            return real(graph, source, *args, **kwargs)

        monkeypatch.setattr(nx, "single_source_shortest_path_length", counting)
        graph = random_connected_graph(150, seed=7)
        net = Network(graph)
        build_distributed_scheme(graph, k, seed=7, net=net)
        assert len(calls) == 1
        assert net.hop_diameter_upper_bound() == net.hop_diameter_upper_bound()
        assert len(calls) == 1

    @pytest.mark.parametrize("graph", [
        nx.path_graph(1), nx.path_graph(7), nx.star_graph(5),
        random_connected_graph(120, seed=3),
    ], ids=["single-vertex", "path", "star", "gnp"])
    def test_bound_equals_the_reference_engines(self, graph):
        assert (Network(graph).hop_diameter_upper_bound()
                == ReferenceNetwork(graph).hop_diameter_upper_bound())


class TestMessaging:
    def test_send_and_tick_delivers(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", 42)])
        inboxes = net.tick()
        assert inboxes["b"] == [("a", "b", 42)]

    def test_tick_advances_round_counter(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", None)])
        net.tick()
        assert net.metrics.rounds == 1

    def test_non_edge_send_raises(self, engine):
        net = engine(tiny_graph())
        with pytest.raises(CongestModelViolation):
            net.send_each([("a", "c", None)])

    def test_edge_capacity_enforced(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", 1)])
        with pytest.raises(CongestModelViolation):
            net.send_each([("a", "b", 2)])

    def test_opposite_directions_are_independent(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", None), ("b", "a", None)])  # no violation
        inboxes = net.tick()
        assert "a" in inboxes and "b" in inboxes

    def test_capacity_resets_each_round(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", None)])
        net.tick()
        net.send_each([("a", "b", None)])  # new round: fine
        net.tick()
        assert net.metrics.messages == 2

    def test_wide_payload_charges_extra_rounds(self, engine):
        net = engine(tiny_graph(), message_word_limit=2)
        net.send_each([("a", "b", (1, 2, 3, 4, 5, 6))])
        assert net.metrics.charged_rounds == 2  # ceil(6/2) - 1

    def test_message_word_count(self):
        # A message is the sender's ``(src, dst, payload)`` tuple; its width
        # is the payload's, sized by the same rule the engines charge.
        _src, _dst, payload = (1, 2, (1, 2, 3))
        assert words_of(payload) == 3

    def test_message_words_metric_sums_payloads(self, engine):
        net = engine(tiny_graph())
        net.send_each([("a", "b", (1, 2, 3)), ("b", "c", None)])
        assert net.deliver_batch() == [("a", "b", (1, 2, 3)), ("b", "c", None)]
        assert net.metrics.message_words == 4


def fan_out(src, dsts, payload=None):
    """The ``(src, dst, payload)`` batch sending ``payload`` to each of
    ``dsts``."""
    return [(src, dst, payload) for dst in dsts]


class TestBatchedMessaging:
    """Many messages in one ``send_each`` call: fan-outs over a vertex's
    ports and failures in the middle of a batch."""

    def test_send_many_full_fanout(self, engine):
        net = engine(tiny_graph())
        net.send_each(fan_out("b", net.ports("b"), 5))
        delivered = net.deliver_batch()
        assert len(delivered) == 2
        assert delivered == [("b", "a", 5), ("b", "c", 5)]

    def test_send_many_partial_fanout(self, engine):
        net = engine(tiny_graph())
        net.send_each(fan_out("b", ["c"]))
        delivered = net.deliver_batch()
        assert delivered == [("b", "c", None)]

    def test_send_many_violation_keeps_prefix_queued(self, engine):
        net = engine(tiny_graph())
        with pytest.raises(CongestModelViolation, match="is not an edge"):
            net.send_each(fan_out("b", ["a", "zzz"], 7))
        delivered = net.deliver_batch()
        assert delivered == [("b", "a", 7)]
        assert net.metrics.message_words == 1

    def test_send_many_capacity_violation_mid_batch(self, engine):
        net = engine(tiny_graph())
        net.send_each([("b", "c", None)])
        with pytest.raises(CongestModelViolation, match="over capacity"):
            net.send_each(fan_out("b", net.ports("b")))
        # "b -> a" was fine and stays queued; "b -> c" tripped the check.
        assert net.deliver_batch() == [("b", "c", None), ("b", "a", None)]

    def test_deliver_batch_messages_compare_equal_across_rounds(self, engine):
        net = engine(tiny_graph())
        net.send_each(fan_out("b", net.ports("b"), 3))
        first = net.deliver_batch()
        net.send_each(fan_out("b", net.ports("b"), 3))
        second = net.deliver_batch()
        assert first == second
        assert first[0] == ("b", "a", 3)


class TestChargingAndPhases:
    def test_charge_rounds_accumulates(self, engine):
        net = engine(tiny_graph())
        net.charge_rounds(10)
        net.charge_rounds(5)
        assert net.metrics.total_rounds == 15

    def test_charge_negative_raises(self, engine):
        net = engine(tiny_graph())
        with pytest.raises(InputError):
            net.charge_rounds(-1)

    def test_phase_attribution(self, engine):
        net = engine(tiny_graph())
        with phase(net, "setup"):
            net.send_each([("a", "b", None)])
            net.tick()
        assert net.metrics.by_phase() == {"setup": 1}

    def test_idle_rounds(self, engine):
        net = engine(tiny_graph())
        for _ in range(3):
            assert net.tick() == {}
        assert net.metrics.rounds == 3
        assert net.metrics.messages == 0

    def test_wide_fanout_charges_per_message(self, engine):
        net = engine(tiny_graph(), message_word_limit=2)
        net.send_each(fan_out("b", net.ports("b"), (1, 2, 3, 4, 5, 6)))
        assert net.metrics.charged_rounds == 4  # 2 messages x (ceil(6/2)-1)


class TestMemoryIntegration:
    def test_meters_exist_for_all_nodes(self, engine):
        net = engine(tiny_graph())
        for v in net.nodes():
            assert net.mem(v).current == 0

    def test_max_memory_over_nodes(self, engine):
        net = engine(tiny_graph())
        net.store_each("x", {"a": 9, "b": 4})
        assert net.max_memory() == 9

    def test_free_all_prefix(self, engine):
        net = engine(tiny_graph())
        net.store_each("tmp/x", {"a": 5})
        net.store_each("tmp/y", {"b": 5})
        net.free_all("tmp/")
        assert net.max_memory() == 5  # high-water survives
        assert all(net.mem(v).current == 0 for v in net.nodes())

    def test_store_all_charges_every_vertex(self, engine):
        net = engine(tiny_graph())
        net.store_all("relay/buf", 3)
        assert all(net.mem(v).current == 3 for v in net.nodes())
        net.free_key("relay/buf")
        assert all(net.mem(v).current == 0 for v in net.nodes())
        assert net.max_memory() == 3
