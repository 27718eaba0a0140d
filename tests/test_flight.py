"""Tests for the flight recorder (repro.telemetry.flight)."""

import networkx as nx
import pytest

from repro.congest import Network
from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.telemetry import collect, events, flight, phase
from repro.telemetry.flight import FlightConfig, FlightRecorder
from repro.treerouting import build_distributed_tree_scheme


@pytest.fixture()
def net():
    return Network(random_connected_graph(12, seed=3))


def _chat(net, rounds=6):
    """Drive a few rounds of neighbor chatter with growing memory."""
    nodes = sorted(net.nodes())
    for r in range(rounds):
        net.store_each(f"tree/round{r}", dict.fromkeys(nodes, r + 1))
        u = nodes[0]
        w = next(net.neighbors(u))
        net.send_each([(u, w, r)])
        net.tick()


def _recorded(net, rounds=6, **knobs):
    """``_chat`` on ``net`` inside a ``flight.auto(**knobs)`` block; the
    one recorder the session opened for it."""
    with flight.auto(**knobs) as session:
        _chat(net, rounds)
    (recorder,) = session.recorders
    return recorder


class TestGuard:
    def test_off_by_default(self, net):
        assert not events._collectors
        _chat(net)
        assert net.metrics.rounds == 6

    def test_no_observer_work_when_disabled(self, net, monkeypatch):
        """Zero-overhead claim: a closed session listens to nothing, and no
        recorder is fed outside a session."""
        monkeypatch.setattr(FlightRecorder, "on_round",
                            lambda *a: pytest.fail("recorder fed"))
        with flight.auto() as session:
            pass
        assert not events._collectors
        _chat(net)
        assert session.recorders == []

    def test_auto_session_attaches_to_new_networks(self):
        with flight.auto(stride=1) as session:
            assert events._collectors == [session]
            net = Network(random_connected_graph(10, seed=4))
            _chat(net)
        assert not events._collectors
        assert len(session.recorders) == 1
        assert session.recorders[0].rounds_seen == 6
        assert session.recorders[0].n == 10

    def test_auto_records_preexisting_networks_inside_the_block(self, net):
        """A network built before the block is recorded for the rounds it
        runs inside it, and for those only."""
        _chat(net, rounds=2)
        with flight.auto() as session:
            _chat(net, rounds=3)
        _chat(net, rounds=4)
        (rec,) = session.recorders
        assert rec.rounds_seen == 3
        assert net.metrics.rounds == 9

    def test_nested_sessions_each_record(self):
        with flight.auto(stride=1) as outer:
            net = Network(random_connected_graph(8, seed=5))
            with flight.auto(stride=2) as inner:
                _chat(net, rounds=4)
            _chat(net, rounds=2)
        assert [r.rounds_seen for r in inner.recorders] == [4]
        assert [r.rounds_seen for r in outer.recorders] == [6]
        assert len(inner.recorders[0].samples) == 2
        assert len(outer.recorders[0].samples) == 6

    def test_network_without_rounds_gets_no_recorder(self):
        with flight.auto() as session:
            idle = Network(random_connected_graph(8, seed=5))
            charged = Network(random_connected_graph(8, seed=6))
            charged.charge_rounds(2)
        assert idle.metrics.total_rounds == 0
        (rec,) = session.recorders
        assert rec.rounds_seen == 0
        assert [c.rounds for c in rec.charges] == [2]


class TestConfig:
    def test_bad_stride_rejected(self):
        for bad in (0, -1, 2.0, "2", True, None):
            with pytest.raises(InputError, match="stride"):
                FlightConfig(stride=bad)

    def test_bad_ring_rejected(self):
        for bad in (0, -3, 8.5, "8", None):
            with pytest.raises(InputError, match="ring"):
                FlightConfig(ring=bad)

    def test_bad_top_edges_rejected(self):
        """A negative ``top_edges`` would keep every edge but the least
        busy: an unbounded sample from the knob that bounds it."""
        for bad in (-1, -2, 1.5, "3", None):
            with pytest.raises(InputError, match="top_edges"):
                FlightConfig(top_edges=bad)
        assert FlightConfig(top_edges=0).top_edges == 0

    def test_bad_knobs_rejected_through_every_entry(self):
        for make in (FlightRecorder, flight.auto):
            with pytest.raises(InputError, match="top_edges"):
                make(top_edges=-2)

    def test_config_xor_knobs(self):
        with pytest.raises(InputError, match="not both"):
            FlightRecorder(FlightConfig(), stride=2)


class TestSampling:
    def test_stride_thins_samples(self, net):
        rec = _recorded(net, rounds=9, stride=3)
        assert rec.rounds_seen == 9
        assert len(rec.samples) == 3
        assert [s.round_index for s in rec.samples] == [3, 6, 9]

    def test_traffic_totals_count_every_round(self, net):
        rec = _recorded(net, rounds=6, stride=4)
        assert rec.total_messages == 6
        assert rec.total_words > 0

    def test_memory_aggregates(self, net):
        last = _recorded(net, rounds=3).samples[-1]
        # every vertex stored 1+2+3 = 6 words under tree/
        assert last.mem_current_max == 6
        assert last.mem_current_mean == pytest.approx(6.0)
        assert last.prefixes == {"tree/": 6 * net.n}

    def test_vertex_delta_only_records_changes(self, net):
        nodes = sorted(net.nodes())
        with flight.auto() as session:
            net.store_each("a", {nodes[0]: 7})
            net.tick()
            net.tick()  # nothing changed between these samples
        (rec,) = session.recorders
        assert rec.samples[0].vertex_delta == {nodes[0]: (7, 7)}
        assert rec.samples[1].vertex_delta == {}

    def test_charge_events_recorded(self, net):
        with flight.auto() as session, phase(net, "analytic"):
            net.charge_rounds(5, messages=10, words=20)
        (rec,) = session.recorders
        assert len(rec.charges) == 1
        ev = rec.charges[0]
        assert (ev.rounds, ev.messages, ev.words) == (5, 10, 20)
        assert ev.phase == "analytic"

    def test_phase_attribution(self, net):
        with flight.auto() as session, phase(net, "build"):
            _chat(net, rounds=2)
        assert {s.phase for s in session.recorders[0].samples} == {"build"}


class TestRing:
    def test_eviction_folds_into_base(self, net):
        rec = _recorded(net, rounds=10, ring=4)
        assert len(rec.samples) == 4
        assert rec._evicted == 6
        # evicted deltas live on in the base snapshot
        assert rec._base

    def test_vertex_timeline_survives_eviction(self, net):
        v = sorted(net.nodes())[0]
        with flight.auto(ring=3) as session:
            for r in range(8):
                net.store_each("x", {v: r + 1})
                net.tick()
        timeline = session.recorders[0].vertex_timeline(v)
        assert [cur for _, cur, _ in timeline] == [6, 7, 8]
        assert [hw for _, _, hw in timeline] == [6, 7, 8]

    def test_timeline_carries_state_forward(self, net):
        v = sorted(net.nodes())[0]
        with flight.auto() as session:
            net.store_each("x", {v: 9})
            net.tick()
            net.tick()
            net.tick()
        timeline = session.recorders[0].vertex_timeline(v)
        assert [cur for _, cur, _ in timeline] == [9, 9, 9]


class TestReporting:
    def test_busiest_edges_ranked_by_words(self, net):
        edges = _recorded(net, rounds=4).busiest_edges(2)
        assert edges
        words = [w for _, _, _, w in edges]
        assert words == sorted(words, reverse=True)

    def test_peak_memory_sample(self, net):
        rec = _recorded(net, rounds=5)
        peak = rec.peak_memory_sample()
        assert peak is rec.samples[-1]  # memory grows monotonically here

    def test_summary_renders(self, net):
        text = _recorded(net, rounds=4, stride=2).summary()
        assert "rounds observed" in text
        assert "memory peak" in text

    def test_to_dict_json_ready(self, net):
        import json

        doc = _recorded(net, rounds=4, stride=2).to_dict()
        json.dumps(doc)  # must not raise
        assert doc["rounds_seen"] == 4
        assert len(doc["samples"]) == 2
        assert doc["config"]["stride"] == 2

    def test_trace_observer_still_works_alongside(self, net):
        """A second listener and the flight session share the bus."""
        from .differential.harness import EdgeCountObserver

        other = EdgeCountObserver()
        with collect(other), flight.auto() as session:
            _chat(net, rounds=3)
        assert len(other.rounds) == 3
        assert session.recorders[0].rounds_seen == 3


def _nine_word_message(engine):
    """One 9-word payload on a 3-path: ⌈9 / 4⌉ = 3 slots, 2 charged."""
    net = engine(nx.path_graph(3))
    net.send_each([(0, 1, tuple(range(9)))])
    net.tick()
    return net


def _tree_build(engine):
    """A seed-7 tree build at n = 90 over a BFS tree: 509 charged rounds,
    3 of them the extra slots of wide messages."""
    graph = random_connected_graph(90, seed=7)
    net = engine(graph)
    build_distributed_tree_scheme(
        net, spanning_tree_of(graph, style="bfs", seed=7), seed=7)
    return net


class TestEveryChargedRoundReachesEveryListener:
    """The recorder, the network's own metrics and the collector count the
    same rounds: a wide message's extra slots are charges like any other."""

    @pytest.mark.parametrize("run", [_nine_word_message, _tree_build])
    def test_recorder_metrics_and_collector_agree(self, engine, run):
        with collect() as tele, flight.auto() as session:
            net = run(engine)
        (rec,) = session.recorders
        metrics = net.metrics
        assert metrics.charged_rounds > 0
        assert sum(c.rounds for c in rec.charges) == metrics.charged_rounds
        assert tele.counter("congest.charged_rounds") == metrics.charged_rounds
        assert rec.rounds_seen == metrics.rounds == tele.counter("congest.rounds")

    def test_wide_slots_are_unphased_charge_events(self, engine):
        with flight.auto() as session:
            net = _nine_word_message(engine)
        assert [c.to_dict() for c in session.recorders[0].charges] == [
            {"at_round": 0, "rounds": 2, "messages": 0, "words": 0,
             "phase": None}]
        assert net.metrics.fingerprint() == (1, 2, 1, 9, ())


class TestEngineParity:
    def test_table2_flight_identical_on_network_and_reference(self, monkeypatch):
        """What ``repro trace --flight`` records on a Table 2 run does not
        depend on how the engine keeps its memory books: per-round
        ``mem_current_max``, ``prefixes`` and ``vertex_delta`` (every
        field of every sample) agree between the column bank of ``Network``
        and the eager per-vertex loops of the reference.  ``Network``
        samples its group totals from the columns: no vertex's
        ``snapshot()`` is taken."""
        from repro.analysis import tables
        from repro.congest import ReferenceNetwork
        from repro.congest.memory import MemoryMeter, MeterView

        snapshots = []
        for cls in (MemoryMeter, MeterView):
            monkeypatch.setattr(
                cls, "snapshot",
                lambda self, prefix=None, real=cls.snapshot:
                    snapshots.append(self) or real(self, prefix))
        flights, taken = [], []
        for engine in (Network, ReferenceNetwork):
            monkeypatch.setattr(tables, "Network", engine)
            with flight.auto(stride=3) as session:
                tables.run_table2(n=90, seed=5)
            flights.append(session)
            taken.append(len(snapshots))
        assert taken[0] == 0 < taken[1]
        fast, ref = flights
        assert len(fast.recorders) == len(ref.recorders) == 2
        for a, b in zip(fast.recorders, ref.recorders):
            assert len(a.samples) > 10
            assert list(a.samples) == list(b.samples)
        assert fast.to_dicts() == ref.to_dicts()
        assert any(s.prefixes for s in fast.recorders[0].samples)

    def test_sample_taken_while_a_uniform_key_is_live(self):
        from .differential.harness import ENGINES

        runs = {}
        for name, engine in ENGINES.items():
            net = engine(random_connected_graph(6, seed=2))
            first = sorted(net.nodes())[0]
            with flight.auto() as session:
                net.store_each("tree/a", {first: 2})
                net.store_all("relay/buf", 3)
                net.tick()
                net.free_key("relay/buf")
                net.tick()
            runs[name] = list(session.recorders[0].samples)
        live, freed = runs["reference"]
        assert (live.mem_current_max, live.mem_high_water_max) == (5, 5)
        assert live.prefixes == {"tree/": 2, "relay/": 18}
        assert (freed.mem_current_max, freed.mem_high_water_max) == (2, 5)
        assert freed.prefixes == {"tree/": 2}
        assert runs["fastpath"] == runs["reference"]
