"""Unit tests for per-vertex memory meters."""

import networkx as nx
import pytest

from repro.congest.memory import MemoryMeter
from repro.errors import MemoryAccountingError

from .differential.harness import meter_state


class TestStore:
    def test_store_sets_current(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        assert meter.current == 5

    def test_store_updates_high_water(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        assert meter.high_water == 5

    def test_restore_replaces_not_adds(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.store("a", 3)
        assert meter.current == 3

    def test_high_water_survives_shrink(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.store("a", 1)
        assert meter.high_water == 5

    def test_negative_store_raises(self):
        meter = MemoryMeter()
        with pytest.raises(MemoryAccountingError):
            meter.store("a", -1)

    def test_zero_store_allowed(self):
        meter = MemoryMeter()
        meter.store("a", 0)
        assert meter.current == 0


class TestAdd:
    def test_add_accumulates(self):
        meter = MemoryMeter()
        meter.add("list", 2)
        meter.add("list", 3)
        assert meter.current == 5

    def test_add_to_fresh_key(self):
        meter = MemoryMeter()
        meter.add("x", 4)
        assert meter.current == 4

    def test_negative_add_raises(self):
        meter = MemoryMeter()
        meter.add("x", 4)
        with pytest.raises(MemoryAccountingError):
            meter.add("x", -1)
        assert meter.current == 4


class TestFree:
    def test_free_releases(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.free("a")
        assert meter.current == 0

    def test_free_absent_key_is_noop(self):
        meter = MemoryMeter()
        meter.free("ghost")
        assert meter.current == 0

    def test_free_keeps_high_water(self):
        meter = MemoryMeter()
        meter.store("a", 7)
        meter.free("a")
        assert meter.high_water == 7

    def test_free_prefix(self):
        meter = MemoryMeter()
        meter.store("stage1/a", 2)
        meter.store("stage1/b", 3)
        meter.store("stage2/c", 4)
        meter.free_prefix("stage1/")
        assert meter.current == 4

    def test_high_water_tracks_simultaneous_peak(self):
        meter = MemoryMeter()
        meter.store("a", 3)
        meter.store("b", 4)  # peak 7
        meter.free("a")
        meter.store("c", 2)  # now 6
        assert meter.high_water == 7
        assert meter.current == 6


class TestInspection:
    def test_items_lists_contents(self):
        meter = MemoryMeter()
        meter.store("a", 1)
        meter.store("b", 2)
        assert dict(meter.items()) == {"a": 1, "b": 2}

    def test_high_water_excluding_prefix(self):
        meter = MemoryMeter()
        meter.store("relay/buf", 10)
        meter.store("algo/x", 3)
        assert meter.high_water_excluding("relay/") == 3


class TestSnapshot:
    def test_groups_by_first_slash_segment(self):
        meter = MemoryMeter()
        meter.store("tree/ancestors", 3)
        meter.store("tree/labels", 2)
        meter.store("relay/buf", 5)
        assert meter.snapshot() == {"tree/": 5, "relay/": 5}

    def test_slashless_key_groups_under_itself(self):
        meter = MemoryMeter()
        meter.store("scratch", 4)
        assert meter.snapshot() == {"scratch": 4}

    def test_prefix_returns_exact_keys(self):
        meter = MemoryMeter()
        meter.store("tree/ancestors", 3)
        meter.store("tree/labels", 2)
        meter.store("relay/buf", 5)
        assert meter.snapshot("tree/") == {
            "tree/ancestors": 3, "tree/labels": 2}

    def test_prefix_without_matches_is_empty(self):
        meter = MemoryMeter()
        meter.store("a", 1)
        assert meter.snapshot("missing/") == {}

    def test_snapshot_tracks_frees(self):
        meter = MemoryMeter()
        meter.store("tree/a", 3)
        meter.free("tree/a")
        assert meter.snapshot() == {}

    def test_snapshot_sums_match_current(self):
        meter = MemoryMeter()
        meter.store("tree/a", 3)
        meter.store("hopset/b", 7)
        meter.store("loose", 2)
        assert sum(meter.snapshot().values()) == meter.current


class TestPrefixIndexTeardownCost:
    """What a prefix teardown frees on the specification meter: exactly
    the keys starting with the prefix, inside one group or across groups,
    however much else is stored."""

    def test_free_prefix_scans_only_its_group(self):
        meter = MemoryMeter()
        for i in range(500):
            meter.store(f"big/key-{i}", 1)
        for i in range(3):
            meter.store(f"t/key-{i}", 1)
        meter.free_prefix("t/")
        assert meter.current == 500

    def test_free_prefix_absent_group_scans_nothing(self):
        meter = MemoryMeter()
        for i in range(100):
            meter.store(f"big/key-{i}", 1)
        meter.free_prefix("gone/")
        assert meter.current == 100

    def test_partial_prefix_within_group(self):
        meter = MemoryMeter()
        meter.store("hopset/scratch-1", 2)
        meter.store("hopset/scratch-2", 2)
        meter.store("hopset/keep", 5)
        meter.free_prefix("hopset/scratch-")
        assert meter.current == 5
        assert meter.snapshot("hopset/") == {"hopset/keep": 5}

    def test_slashless_prefix_falls_back_to_full_scan(self):
        meter = MemoryMeter()
        meter.store("alpha", 1)
        meter.store("beta", 1)
        meter.store("tree/a", 1)
        meter.free_prefix("al")
        assert meter.current == 2

    def test_scan_cost_does_not_scale_with_other_groups(self):
        meter = MemoryMeter()
        for g in range(50):
            for i in range(10):
                meter.store(f"group{g}/k{i}", 1)
        meter.store("tiny/only", 1)
        meter.free_prefix("tiny/")
        assert meter.current == 500

    def test_group_index_survives_free_and_restore(self):
        meter = MemoryMeter()
        meter.store("t/a", 1)
        meter.free("t/a")
        meter.store("t/b", 2)
        meter.free_prefix("t/")
        assert meter.current == 0


class TestNetworkBulkFrees:
    """Engine-parametrized: meter state after network-level bulk frees is
    identical across reference and fastpath."""

    def test_free_all_and_free_key_empty_every_vertex(self, engine):
        net = engine(nx.path_graph(4))
        net.store_each("tree/a", dict.fromkeys(net.nodes(), 2))
        net.store_all("tree/b", 1)
        net.store_all("relay/broadcast", 3)
        net.free_all("tree/")  # a column and a uniform key, by key
        assert all(net.mem(v).current == 3 for v in net.nodes())
        net.free_key("relay/broadcast")
        assert all(net.mem(v).current == 0 for v in net.nodes())
        assert net.max_memory() == 6

    def test_high_water_after_round_teardown(self, engine):
        net = engine(nx.path_graph(3))
        net.store_all("relay/buf", 4)
        net.send_each([(v, w, None) for v in net.nodes() for w in net.ports(v)])
        net.deliver_batch()
        net.free_key("relay/buf")
        assert net.max_memory() == 4
        assert all(net.mem(v).current == 0 for v in net.nodes())


class TestNetworkLevelAccounting:
    """Engine-parametrized: the cases a network-level record with lazily
    settled high-waters can get wrong, with the values the eager
    per-vertex loops of the reference engine produce."""

    def test_peak_between_two_touches_of_a_vertex(self, engine):
        net = engine(nx.path_graph(3))
        net.store_each("tree/a", {0: 5})
        for words in (3, 9, 2):  # three peaks come and go; 0 is not touched
            net.store_all("relay/broadcast", words)
            net.free_key("relay/broadcast")
        net.store_each("tree/b", {0: 1})
        assert [net.mem(v).current for v in net.nodes()] == [6, 0, 0]
        assert net.memory_high_water() == {0: 14, 1: 9, 2: 9}
        assert net.max_memory() == 14

    def test_peak_before_a_vertex_grew_is_not_charged_to_it(self, engine):
        net = engine(nx.path_graph(2))
        net.store_all("relay/broadcast", 9)
        net.free_key("relay/broadcast")
        net.store_each("tree/a", {0: 5})  # after the peak: never 5 + 9
        net.store_all("relay/broadcast", 2)
        assert net.memory_high_water() == {0: 9, 1: 9}
        assert [net.mem(v).current for v in net.nodes()] == [7, 2]

    def test_store_all_over_per_vertex_sizes(self, engine):
        net = engine(nx.path_graph(4))
        net.store_each("t/k", {0: 10, 1: 2})
        net.store_all("t/k", 4)
        for v in net.nodes():
            assert net.mem(v).current == 4
            assert dict(net.mem(v).items()) == {"t/k": 4}
        # 0 shrank 10 -> 4 and 1 grew 2 -> 4 in place: never 10 + 4.
        assert net.memory_high_water() == {0: 10, 1: 4, 2: 4, 3: 4}
        net.free_key("t/k")
        assert all(net.mem(v).current == 0 for v in net.nodes())
        assert all(not dict(net.mem(v).items()) for v in net.nodes())

    def test_vertex_deviating_from_a_uniform_key(self, engine):
        net = engine(nx.path_graph(5))
        net.store_all("t/k", 4)
        net.store_all("t/other", 1)
        net.store_each("t/k", {0: 9, 2: 0})  # demotes t/k
        net.add_each("t/k", [1, 3, 1], 2)  # 1 is listed twice: grows twice
        assert [net.mem(v).current for v in net.nodes()] == [10, 9, 1, 7, 5]
        assert net.memory_high_water() == {0: 10, 1: 9, 2: 5, 3: 7, 4: 5}
        assert net.mem(2).snapshot("t/") == {"t/k": 0, "t/other": 1}
        assert net.mem(4).snapshot() == {"t/": 5}
        assert net.mem(4).snapshot("t/") == {"t/k": 4, "t/other": 1}
        net.free_key("t/k")
        assert [net.mem(v).current for v in net.nodes()] == [1] * 5
        net.free_all("t/")
        assert [net.mem(v).current for v in net.nodes()] == [0] * 5

    def test_add_each_stops_at_an_unknown_vertex(self, engine):
        net = engine(nx.path_graph(3))
        net.store_all("t/k", 1)
        with pytest.raises(KeyError):
            net.add_each("t/k", [0, 2, 0, "ghost", 1], 3)
        assert [net.mem(v).current for v in net.nodes()] == [7, 1, 4]
        with pytest.raises(MemoryAccountingError):
            net.add_each("t/k", [1], -1)
        assert net.memory_high_water() == {0: 7, 1: 1, 2: 4}

    def test_restore_all_of_a_live_key_with_a_smaller_size(self, engine):
        net = engine(nx.path_graph(2))
        net.store_all("relay/buf", 8)
        net.store_all("relay/buf", 3)
        net.store_each("tree/a", {0: 2})
        assert [net.mem(v).current for v in net.nodes()] == [5, 3]
        assert net.memory_high_water() == {0: 8, 1: 8}
        assert net.mem(0).high_water_excluding("relay/") == 2

    def test_negative_store_all_changes_nothing(self, engine):
        net = engine(nx.path_graph(3))
        net.store_all("relay/buf", 2)
        net.store_each("t/k", {0: 1})
        before = meter_state(net)
        with pytest.raises(MemoryAccountingError) as failure:
            net.store_all("t/k", -1)
        with pytest.raises(MemoryAccountingError) as expected:
            MemoryMeter().store("t/k", -1)
        assert str(failure.value) == str(expected.value)
        assert meter_state(net) == before
        net.free_key("t/k")  # vertex 0's entry is still in the key's column
        assert net.mem(0).current == 2

    def test_items_at_call_time(self, engine):
        net = engine(nx.path_graph(2))
        net.store_all("relay/buf", 2)
        meter = net.mem(0)
        net.store_each("tree/a", {0: 1})
        assert dict(meter.items()) == {"relay/buf": 2, "tree/a": 1}
        net.free_key("relay/buf")
        net.store_each("tree/b", {0: 2})
        net.store_each("tree/c", {1: 3})  # another vertex's entry
        assert dict(meter.items()) == {"tree/a": 1, "tree/b": 2}


class TestBulkHighWaterRead:
    """``MemoryBank.high_waters`` settles every meter in one loop with one
    ``peak_since`` per distinct stale epoch (a build reads all n marks once
    per cluster tree, and the meters it did not touch since the last read
    all carry that read's epoch)."""

    def test_one_peak_lookup_per_distinct_stale_epoch(self, monkeypatch):
        from repro.congest import Network
        from repro.congest.memory import MemoryBank

        lookups = []
        real = MemoryBank.peak_since
        monkeypatch.setattr(
            MemoryBank, "peak_since",
            lambda self, epoch: lookups.append(epoch) or real(self, epoch))
        net = Network(nx.path_graph(50))
        net.store_all("relay/a", 4)
        net.store_each("tree/x", {7: 3})  # settles 7 at the current epoch
        net.store_all("relay/b", 2)
        net.free_key("relay/a")
        del lookups[:]
        marks = net.memory_high_water()
        assert len(lookups) == 2  # 49 untouched meters + vertex 7
        assert marks == {v: 9 if v == 7 else 6 for v in range(50)}
        del lookups[:]
        assert net.memory_high_water() == marks and lookups == []  # all fresh


class TestColumnBank:
    """``Network`` keeps its memory record as columns: no per-vertex meter
    object, one dict per live per-vertex key."""

    def test_network_constructs_no_memory_meter(self, monkeypatch):
        from repro.congest import Network, ReferenceNetwork
        from repro.graphs import random_connected_graph

        built = []
        init = MemoryMeter.__init__
        monkeypatch.setattr(MemoryMeter, "__init__",
                            lambda self: built.append(self) or init(self))
        graph = random_connected_graph(200, seed=3)
        Network(graph)
        assert built == []
        ReferenceNetwork(graph)  # the spy sees the specification's meters
        assert len(built) == 200

    def test_one_column_per_live_key_after_a_tree_build(self):
        from repro.congest import Network
        from repro.graphs import random_connected_graph, spanning_tree_of
        from repro.treerouting import build_distributed_tree_scheme

        graph = random_connected_graph(2000, seed=7)
        tree = spanning_tree_of(graph, style="dfs", seed=7)
        net = Network(graph)
        build_distributed_tree_scheme(net, tree, seed=7)
        bank = net._bank
        live = {key for v in net.nodes() for key, _ in net.mem(v).items()}
        assert live == set(bank.columns) | set(bank.uniform)
        assert all(bank.columns.values())  # an emptied column is dropped
        assert 0 < len(bank.columns) <= 16  # the tree's retained keys, n=2000
        assert sum(map(len, bank.columns.values())) >= 2000 * 4

    def test_free_all_drops_keys_without_demoting(self, monkeypatch):
        from repro.congest import Network
        from repro.congest.memory import MemoryBank

        net = Network(nx.path_graph(50))
        net.store_all("t/uniform", 3)
        net.store_each("t/column", {7: 2})
        net.store_all("keep", 1)
        monkeypatch.setattr(MemoryBank, "demote", None)  # any call fails
        net.free_all("t/")
        bank = net._bank
        assert (set(bank.columns), set(bank.uniform)) == (set(), {"keep"})
        assert all(net.mem(v).current == 1 for v in net.nodes())
        assert net.memory_high_water() == {v: 6 if v == 7 else 4 for v in range(50)}
