"""Unit tests for run metrics and phase attribution."""

from repro.congest.metrics import PhaseRecord, RunMetrics
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.telemetry import collect
from repro.treerouting import build_distributed_tree_scheme


class TestRunMetrics:
    def test_on_round_accumulates(self):
        m = RunMetrics()
        m.on_round(messages=3, words=7)
        m.on_round(messages=2, words=1)
        assert (m.rounds, m.messages, m.message_words) == (2, 5, 8)

    def test_on_charge_separate_counter(self):
        m = RunMetrics()
        m.on_charge(10)
        assert m.rounds == 0
        assert m.charged_rounds == 10
        assert m.total_rounds == 10

    def test_total_combines(self):
        m = RunMetrics()
        m.on_round(1, 1)
        m.on_charge(4)
        assert m.total_rounds == 5

    def test_phase_attribution(self):
        m = RunMetrics()
        m.begin_phase("a")
        m.on_round(1, 1)
        m.on_charge(2)
        m.end_phase()
        m.on_round(1, 1)  # unattributed
        assert m.by_phase() == {"a": 3}

    def test_repeated_phase_names_merge(self):
        m = RunMetrics()
        for _ in range(2):
            m.begin_phase("x")
            m.on_round(1, 1)
            m.end_phase()
        assert m.by_phase() == {"x": 2}

    def test_summary_mentions_phases(self):
        m = RunMetrics()
        m.begin_phase("setup")
        m.on_round(1, 1)
        m.end_phase()
        text = m.summary()
        assert "setup" in text and "rounds=1" in text


    def test_charged_traffic_goes_to_totals_not_phase(self):
        m = RunMetrics()
        m.begin_phase("p")
        m.on_charge(3, messages=5, words=9)
        assert (m.charged_rounds, m.messages, m.message_words) == (3, 5, 9)
        assert m.phases[0].to_dict() == {
            "name": "p", "rounds": 0, "charged_rounds": 3,
            "messages": 0, "message_words": 0}


class TestTelemetryEmission:
    """``on_round`` / ``on_charge`` are the one emission site of the
    ``congest.*`` counters, so a collector's totals are the run's."""

    def test_collector_totals_equal_run_metrics(self, engine):
        graph = random_connected_graph(90, seed=17)
        tree = spanning_tree_of(graph, style="dfs", seed=17)
        net = engine(graph)
        with collect() as tele:
            build_distributed_tree_scheme(net, tree, seed=17)
        m = net.metrics
        assert m.rounds > 0 and m.charged_rounds > 0 and m.messages > 0
        assert tele.counter("congest.rounds") == m.rounds
        assert tele.counter("congest.charged_rounds") == m.charged_rounds
        assert tele.counter("congest.messages") == m.messages
        assert tele.counter("congest.message_words") == m.message_words

    def test_detached_run_emits_nothing_and_counts_the_same(self, engine):
        graph = random_connected_graph(90, seed=17)
        tree = spanning_tree_of(graph, style="dfs", seed=17)
        plain, traced = engine(graph), engine(graph)
        build_distributed_tree_scheme(plain, tree, seed=17)
        with collect():
            build_distributed_tree_scheme(traced, tree, seed=17)
        assert plain.metrics.fingerprint() == traced.metrics.fingerprint()


class TestPhaseRecord:
    def test_total_rounds(self):
        rec = PhaseRecord(name="p", rounds=2, charged_rounds=3)
        assert rec.total_rounds == 5
