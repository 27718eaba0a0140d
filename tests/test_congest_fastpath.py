"""Regression tests for the fast-path engine's precomputed structures.

The headline guarantees:

* :meth:`Network.ports` is O(1) after construction — the port tables are
  sorted exactly once per vertex in ``__init__`` and never again (the spy
  test counts ``sorted`` calls, so a reintroduced per-call sort fails
  loudly, not slowly);
* a batch of many messages that fails part-way keeps the engine's running
  word total equal to what the round delivers.
"""

from __future__ import annotations

import builtins

import pytest

import repro.congest.network as network_mod
import repro.congest.reference as reference_mod
from repro.congest import Network, ReferenceNetwork
from repro.graphs import random_connected_graph
from repro.wordsize import words_of

SEED = 99


@pytest.fixture()
def graph():
    return random_connected_graph(40, seed=SEED)


class _SortSpy:
    """Counts calls routed through a module's ``sorted`` name.

    Assigning the spy as a module attribute shadows the builtin for that
    module only (module globals are resolved before builtins), so the count
    isolates the module under test.
    """

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return builtins.sorted(*args, **kwargs)


class TestPortsAreCached:
    def test_construction_sorts_once_per_vertex(self, graph, monkeypatch):
        spy = _SortSpy()
        monkeypatch.setattr(network_mod, "sorted", spy, raising=False)
        net = Network(graph)
        assert spy.calls == net.n

    def test_ports_is_o1_after_first_call(self, graph, monkeypatch):
        spy = _SortSpy()
        monkeypatch.setattr(network_mod, "sorted", spy, raising=False)
        net = Network(graph)
        built = spy.calls
        for _ in range(5):
            for v in net.nodes():
                net.ports(v)
        assert spy.calls == built, "ports() re-sorted after construction"

    def test_repeated_calls_return_same_object(self, graph):
        net = Network(graph)
        v = next(net.nodes())
        assert net.ports(v) is net.ports(v)

    def test_reference_engine_sorts_per_call(self, graph, monkeypatch):
        """Contrast pin: the oracle intentionally re-sorts every time, so
        the spy proves it measures what it claims to."""
        spy = _SortSpy()
        monkeypatch.setattr(reference_mod, "sorted", spy, raising=False)
        net = ReferenceNetwork(graph)
        v = next(net.nodes())
        before = spy.calls
        net.ports(v)
        net.ports(v)
        assert spy.calls == before + 2

    def test_port_order_matches_reference(self, graph):
        fast = Network(graph)
        ref = ReferenceNetwork(random_connected_graph(40, seed=SEED))
        for v in fast.nodes():
            assert fast.ports(v) == ref.ports(v)


class TestSendManyFastPath:
    def test_outbox_words_stays_consistent_after_violation(self, graph):
        from repro.errors import CongestModelViolation

        net = Network(graph)
        v = max(net.nodes(), key=net.degree)  # guaranteed >= 2 ports
        ports = net.ports(v)
        net.send_each([(v, ports[0], None)])
        with pytest.raises(CongestModelViolation):
            net.send_each([(v, ports[-1], None), (v, ports[0], None)])
        # ports[-1]'s message survived the failed batch; the word counter
        # must agree with what tick() delivers.
        inboxes = net.tick()
        delivered = [m for box in inboxes.values() for m in box]
        assert len(delivered) == 2
        assert net.metrics.message_words == sum(words_of(m[2]) for m in delivered)
