"""One stage marker: ``repro.telemetry.phase``.

A phase opens a ``PhaseRecord`` on ``net.metrics`` and, with a listener
attached, a leaf span of the same name.  So every round a build runs or
charges sits in exactly one phase, and the span tree and ``by_phase()``
count the same rounds per stage.  Checked on both engines for the paper
builds and the EN16 baseline.
"""

import pytest

from repro.baselines.en16_tree import build_en16_tree_scheme
from repro.core.build import build_distributed_scheme
from repro.errors import CongestModelViolation, InvariantViolation
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.telemetry import collect, phase
from repro.treerouting import build_distributed_tree_scheme

from .differential.harness import ENGINES
from .test_congest_network import tiny_graph

BUILDS = ("graph-k2", "graph-k3", "graph-k4", "tree", "en16")


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(150, seed=7)


@pytest.fixture(scope="module", params=sorted(ENGINES))
def built(request, graph):
    """``build -> (net, collector)`` for every build, run once under
    ``collect()`` on one engine."""
    tree = spanning_tree_of(graph, style="dfs", seed=7)
    out = {}
    for name in BUILDS:
        net = ENGINES[request.param](graph)
        with collect() as tele:
            if name == "tree":
                build_distributed_tree_scheme(net, tree)
            elif name == "en16":
                build_en16_tree_scheme(net, tree)
            else:
                build_distributed_scheme(graph, int(name[-1]), seed=7, net=net)
        out[name] = (net, tele)
    return out


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.children)


@pytest.mark.parametrize("build", BUILDS)
def test_every_round_is_in_a_phase(built, build):
    net, _ = built[build]
    assert net.metrics.phase_name is None
    assert sum(net.metrics.by_phase().values()) == net.metrics.total_rounds > 0


@pytest.mark.parametrize("build", BUILDS)
def test_phase_spans_count_the_phase_records(built, build):
    net, tele = built[build]
    by_phase = net.metrics.by_phase()
    from_spans = dict.fromkeys(by_phase, 0)
    for node in _walk(tele.roots):
        if node.name in by_phase:
            assert node.children == [], node.name
            from_spans[node.name] += (node.counters.get("congest.rounds", 0)
                                      + node.counters.get("congest.charged_rounds", 0))
    assert from_spans == by_phase


class TestPhase:
    @pytest.fixture(params=sorted(ENGINES))
    def net(self, request):
        return ENGINES[request.param](tiny_graph())

    def test_records_rounds_and_charges(self, net):
        with phase(net, "p"):
            net.send_each([("a", "b", None)])
            net.tick()
            net.charge_rounds(3)
        assert net.metrics.phase_name is None
        assert net.metrics.by_phase() == {"p": 4}

    def test_nesting_is_an_invariant_violation(self, net):
        with phase(net, "outer"):
            with pytest.raises(InvariantViolation, match="inside phase 'outer'"):
                with phase(net, "inner"):
                    pass
            assert net.metrics.phase_name == "outer"
            net.charge_rounds(2)
        assert [p.name for p in net.metrics.phases] == ["outer"]
        assert net.metrics.by_phase() == {"outer": 2}

    def test_a_raising_block_closes_the_phase(self, net):
        with pytest.raises(CongestModelViolation):
            with phase(net, "bad"):
                net.send_each([("a", "c", None)])  # not an edge
        assert net.metrics.phase_name is None
        net.charge_rounds(1)
        assert net.metrics.by_phase() == {"bad": 0}

    def test_span_only_with_a_listener(self, net):
        with phase(net, "quiet"):
            with collect() as late:
                net.charge_rounds(1)
        assert late.roots == []
        with collect() as tele:
            with phase(net, "loud"):
                net.charge_rounds(2)
        (node,) = tele.roots
        assert (node.name, node.children) == ("loud", [])
        assert node.counters["congest.charged_rounds"] == 2
