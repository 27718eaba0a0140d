"""Unit tests for the CONGEST network simulator and model enforcement.

Every behavioral test takes the ``engine`` fixture and therefore runs twice
— reference, fastpath — so the engines cannot drift on even the smallest
contract detail.
"""

import networkx as nx
import pytest

from repro.congest import Message
from repro.errors import CongestModelViolation, InputError


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

    def test_n_counts_vertices(self, engine):
        assert engine(tiny_graph()).n == 3


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

    def test_hop_diameter_upper_bound(self, engine):
        net = engine(tiny_graph())
        assert net.hop_diameter_upper_bound() >= 2


class TestMessaging:
    def test_send_and_tick_delivers(self, engine):
        net = engine(tiny_graph())
        net.send("a", "b", "ping", 42)
        inboxes = net.tick()
        assert [m.payload for m in inboxes["b"]] == [42]

    def test_tick_advances_round_counter(self, engine):
        net = engine(tiny_graph())
        net.send("a", "b", "x")
        net.tick()
        assert net.metrics.rounds == 1

    def test_non_edge_send_raises(self, engine):
        net = engine(tiny_graph())
        with pytest.raises(CongestModelViolation):
            net.send("a", "c", "x")

    def test_edge_capacity_enforced(self, engine):
        net = engine(tiny_graph())
        net.send("a", "b", "x", 1)
        with pytest.raises(CongestModelViolation):
            net.send("a", "b", "y", 2)

    def test_opposite_directions_are_independent(self, engine):
        net = engine(tiny_graph())
        net.send("a", "b", "x")
        net.send("b", "a", "y")  # no violation
        inboxes = net.tick()
        assert "a" in inboxes and "b" in inboxes

    def test_capacity_resets_each_round(self, engine):
        net = engine(tiny_graph())
        net.send("a", "b", "x")
        net.tick()
        net.send("a", "b", "y")  # new round: fine
        net.tick()
        assert net.metrics.messages == 2

    def test_wide_payload_charges_extra_rounds(self, engine):
        net = engine(tiny_graph(), message_word_limit=2)
        net.send("a", "b", "wide", (1, 2, 3, 4, 5, 6))
        assert net.metrics.charged_rounds == 2  # ceil(6/2) - 1

    def test_message_word_count(self):
        msg = Message(src=1, dst=2, kind="k", payload=(1, 2, 3))
        assert msg.words == 3

    def test_message_reply_swaps_endpoints(self):
        msg = Message(src=1, dst=2, kind="k")
        reply = msg.reply("ack", 0)
        assert (reply.src, reply.dst) == (2, 1)


class TestBatchedMessaging:
    def test_send_many_full_fanout(self, engine):
        net = engine(tiny_graph())
        assert net.send_many("b", net.ports("b"), "wave", 5) == 2
        delivered = net.deliver_batch()
        assert len(delivered) == 2
        assert [(m.src, m.dst, m.payload) for m in delivered] == [
            ("b", "a", 5), ("b", "c", 5)
        ]

    def test_send_many_partial_fanout(self, engine):
        net = engine(tiny_graph())
        assert net.send_many("b", ["c"], "wave") == 1
        delivered = net.deliver_batch()
        assert [(m.src, m.dst) for m in delivered] == [("b", "c")]

    def test_send_many_violation_keeps_prefix_queued(self, engine):
        net = engine(tiny_graph())
        with pytest.raises(CongestModelViolation, match="is not an edge"):
            net.send_many("b", ["a", "zzz"], "wave", 7)
        delivered = net.deliver_batch()
        assert [(m.src, m.dst, m.payload) for m in delivered] == [("b", "a", 7)]
        assert net.metrics.message_words == 1

    def test_send_many_capacity_violation_mid_batch(self, engine):
        net = engine(tiny_graph())
        net.send("b", "c", "first")
        with pytest.raises(CongestModelViolation, match="over capacity"):
            net.send_many("b", net.ports("b"), "wave")
        # "b -> a" was fine and stays queued; "b -> c" tripped the check.
        assert [(m.src, m.dst) for m in net.deliver_batch()] == [
            ("b", "c"), ("b", "a")
        ]

    def test_deliver_batch_messages_compare_equal_across_rounds(self, engine):
        net = engine(tiny_graph())
        net.send_many("b", net.ports("b"), "wave", 3)
        first = net.deliver_batch()
        net.send_many("b", net.ports("b"), "wave", 3)
        second = net.deliver_batch()
        assert first == second
        assert first[0] == Message("b", "a", "wave", 3)


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
        net.begin_phase("setup")
        net.send("a", "b", "x")
        net.tick()
        net.end_phase()
        assert net.metrics.by_phase() == {"setup": 1}

    def test_idle_rounds(self, engine):
        net = engine(tiny_graph())
        net.idle_rounds(3)
        assert net.metrics.rounds == 3
        assert net.metrics.messages == 0

    def test_wide_fanout_charges_per_message(self, engine):
        net = engine(tiny_graph(), message_word_limit=2)
        net.send_many("b", net.ports("b"), "wide", (1, 2, 3, 4, 5, 6))
        assert net.metrics.charged_rounds == 4  # 2 messages x (ceil(6/2)-1)


class TestMemoryIntegration:
    def test_meters_exist_for_all_nodes(self, engine):
        net = engine(tiny_graph())
        for v in net.nodes():
            assert net.mem(v).current == 0

    def test_max_memory_over_nodes(self, engine):
        net = engine(tiny_graph())
        net.mem("a").store("x", 9)
        net.mem("b").store("x", 4)
        assert net.max_memory() == 9

    def test_free_all_prefix(self, engine):
        net = engine(tiny_graph())
        net.mem("a").store("tmp/x", 5)
        net.mem("b").store("tmp/y", 5)
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
