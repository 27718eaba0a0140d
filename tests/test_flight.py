"""Tests for the flight recorder (repro.telemetry.flight)."""

import pytest

from repro.congest import Network
from repro.errors import InputError
from repro.graphs import random_connected_graph
from repro.telemetry import flight
from repro.telemetry.flight import (
    FlightConfig,
    FlightRecorder,
    attach_flight_recorder,
)


@pytest.fixture()
def net():
    return Network(random_connected_graph(12, seed=3))


def _chat(net, rounds=6):
    """Drive a few rounds of neighbor chatter with growing memory."""
    nodes = sorted(net.nodes())
    for r in range(rounds):
        for v in nodes:
            net.mem(v).store(f"tree/round{r}", r + 1)
        u = nodes[0]
        w = next(net.neighbors(u))
        net.send_each([(u, w, r)])
        net.tick()


class TestGuard:
    def test_off_by_default(self, net):
        assert not flight._SESSIONS
        assert net._round_observers == []
        _chat(net)

    def test_no_observer_work_when_disabled(self, net):
        """Zero-overhead claim: no recorder attaches without a session."""
        _chat(net)
        assert net._round_observers == []

    def test_auto_session_attaches_to_new_networks(self):
        with flight.auto(stride=1) as session:
            assert flight._SESSIONS
            net = Network(random_connected_graph(10, seed=4))
            _chat(net)
        assert not flight._SESSIONS
        assert len(session.recorders) == 1
        assert session.recorders[0].rounds_seen == 6

    def test_auto_does_not_touch_preexisting_networks(self, net):
        with flight.auto():
            _chat(net)
        assert net._round_observers == []

    def test_sessions_nest_innermost_wins(self):
        with flight.auto(stride=1) as outer:
            with flight.auto(stride=2) as inner:
                Network(random_connected_graph(8, seed=5))
            assert len(inner.recorders) == 1
            assert not outer.recorders


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
        for make in (FlightRecorder, flight.auto,
                     lambda **kw: attach_flight_recorder(
                         Network(random_connected_graph(6, seed=1)), **kw)):
            with pytest.raises(InputError, match="top_edges"):
                make(top_edges=-2)

    def test_config_xor_knobs(self):
        with pytest.raises(InputError, match="not both"):
            FlightRecorder(FlightConfig(), stride=2)


class TestSampling:
    def test_stride_thins_samples(self, net):
        rec = attach_flight_recorder(net, stride=3)
        _chat(net, rounds=9)
        assert rec.rounds_seen == 9
        assert len(rec.samples) == 3
        assert [s.round_index for s in rec.samples] == [3, 6, 9]

    def test_traffic_totals_count_every_round(self, net):
        rec = attach_flight_recorder(net, stride=4)
        _chat(net, rounds=6)
        assert rec.total_messages == 6
        assert rec.total_words > 0

    def test_memory_aggregates(self, net):
        rec = attach_flight_recorder(net, stride=1)
        _chat(net, rounds=3)
        last = rec.samples[-1]
        # every vertex stored 1+2+3 = 6 words under tree/
        assert last.mem_current_max == 6
        assert last.mem_current_mean == pytest.approx(6.0)
        assert last.prefixes == {"tree/": 6 * net.n}

    def test_vertex_delta_only_records_changes(self, net):
        rec = attach_flight_recorder(net, stride=1)
        nodes = sorted(net.nodes())
        net.mem(nodes[0]).store("a", 7)
        net.tick()
        net.tick()  # nothing changed between these samples
        assert rec.samples[0].vertex_delta == {nodes[0]: (7, 7)}
        assert rec.samples[1].vertex_delta == {}

    def test_charge_events_recorded(self, net):
        rec = attach_flight_recorder(net)
        net.begin_phase("analytic")
        net.charge_rounds(5, messages=10, words=20)
        net.end_phase()
        assert len(rec.charges) == 1
        ev = rec.charges[0]
        assert (ev.rounds, ev.messages, ev.words) == (5, 10, 20)
        assert ev.phase == "analytic"

    def test_phase_attribution(self, net):
        rec = attach_flight_recorder(net, stride=1)
        net.begin_phase("build")
        _chat(net, rounds=2)
        net.end_phase()
        assert {s.phase for s in rec.samples} == {"build"}


class TestRing:
    def test_eviction_folds_into_base(self, net):
        rec = attach_flight_recorder(net, stride=1, ring=4)
        _chat(net, rounds=10)
        assert len(rec.samples) == 4
        assert rec._evicted == 6
        # evicted deltas live on in the base snapshot
        assert rec._base

    def test_vertex_timeline_survives_eviction(self, net):
        rec = attach_flight_recorder(net, stride=1, ring=3)
        v = sorted(net.nodes())[0]
        for r in range(8):
            net.mem(v).store("x", r + 1)
            net.tick()
        timeline = rec.vertex_timeline(v)
        assert [cur for _, cur, _ in timeline] == [6, 7, 8]
        assert [hw for _, _, hw in timeline] == [6, 7, 8]

    def test_timeline_carries_state_forward(self, net):
        rec = attach_flight_recorder(net, stride=1)
        v = sorted(net.nodes())[0]
        net.mem(v).store("x", 9)
        net.tick()
        net.tick()
        net.tick()
        assert [cur for _, cur, _ in rec.vertex_timeline(v)] == [9, 9, 9]


class TestReporting:
    def test_busiest_edges_ranked_by_words(self, net):
        rec = attach_flight_recorder(net)
        _chat(net, rounds=4)
        edges = rec.busiest_edges(2)
        assert edges
        words = [w for _, _, _, w in edges]
        assert words == sorted(words, reverse=True)

    def test_peak_memory_sample(self, net):
        rec = attach_flight_recorder(net, stride=1)
        _chat(net, rounds=5)
        peak = rec.peak_memory_sample()
        assert peak is rec.samples[-1]  # memory grows monotonically here

    def test_summary_renders(self, net):
        rec = attach_flight_recorder(net, stride=2)
        _chat(net, rounds=4)
        text = rec.summary()
        assert "rounds observed" in text
        assert "memory peak" in text

    def test_to_dict_json_ready(self, net):
        import json

        rec = attach_flight_recorder(net, stride=2)
        _chat(net, rounds=4)
        doc = rec.to_dict()
        json.dumps(doc)  # must not raise
        assert doc["rounds_seen"] == 4
        assert len(doc["samples"]) == 2
        assert doc["config"]["stride"] == 2

    def test_trace_observer_still_works_alongside(self, net):
        """A second observer and the FlightRecorder share the observer hook."""
        from .differential.harness import EdgeCountObserver

        other = net.add_round_observer(EdgeCountObserver())
        rec = attach_flight_recorder(net)
        _chat(net, rounds=3)
        assert len(other.rounds) == 3
        assert rec.rounds_seen == 3


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
            rec = attach_flight_recorder(net, stride=1)
            first = sorted(net.nodes())[0]
            net.mem(first).store("tree/a", 2)
            net.store_all("relay/buf", 3)
            net.tick()
            net.free_key("relay/buf")
            net.tick()
            runs[name] = list(rec.samples)
        live, freed = runs["reference"]
        assert (live.mem_current_max, live.mem_high_water_max) == (5, 5)
        assert live.prefixes == {"tree/": 2, "relay/": 18}
        assert (freed.mem_current_max, freed.mem_high_water_max) == (2, 5)
        assert freed.prefixes == {"tree/": 2}
        assert runs["fastpath"] == runs["reference"]
