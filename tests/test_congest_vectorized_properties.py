"""Property-based tests (hypothesis) for the vectorized round engine.

Three invariants that must hold for *any* fanout schedule, not just the
replays pinned by the differential matrix:

* **Permutation invariance** — the per-destination inbox contents of a
  round are a function of *what* was sent, not of the order in which the
  sending vertices issued their ``send_many`` calls; and they agree with
  the reference engine.
* **Word-accounting conservation** — the queued per-arc load vector sums
  to the total slot count of everything queued, agrees between the
  vectorized engine's numpy kernel and its pure-python twin, and matches
  the fast path's eager bookkeeping arc-for-arc; after delivery the loads
  drain to zero and the word meters agree.
* **Meter-snapshot parity** — any interleaving of network-level bulk
  memory ops (``store_all`` / ``free_key`` / ``free_all``) and per-vertex
  meter ops (``store`` / ``add`` / ``free`` / ``free_prefix``) leaves
  identical meter state (current, high-water, both breakdowns,
  prefix-scan pin) on every engine.

Examples are kept modest (the differential fuzzer already hammers volume);
these exist to let hypothesis *shrink* any structural counterexample.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.congest import ENGINES, ReferenceNetwork, VectorizedNetwork
from repro.wordsize import words_of

from .differential.harness import meter_state

_REPR = repr


@st.composite
def small_graphs(draw, min_size=2, max_size=16):
    """A random connected graph with mixed int/str vertex ids."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    relabel = draw(st.booleans())
    graph = nx.Graph()
    names = [f"v{i}" if relabel and i % 2 else i for i in range(n)]
    graph.add_node(names[0])
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        graph.add_edge(names[i], names[parent])
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u = names[draw(st.integers(min_value=0, max_value=n - 1))]
        v = names[draw(st.integers(min_value=0, max_value=n - 1))]
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def fanout_schedules(draw):
    """A graph plus one ``send_many`` batch per vertex (possibly empty,
    possibly the full port list — the identity fast lane) and a random
    permutation of the issuing order."""
    graph = draw(small_graphs())
    nodes = sorted(graph.nodes, key=_REPR)
    batches = []
    for v in nodes:
        ports = sorted(graph.neighbors(v), key=_REPR)
        mask = draw(st.lists(
            st.booleans(), min_size=len(ports), max_size=len(ports)))
        full = draw(st.booleans())
        batches.append((v, ports if full else
                        [w for w, keep in zip(ports, mask) if keep]))
    perm = draw(st.permutations(range(len(batches))))
    return graph, batches, perm


def _inbox_sets(net, batches, order, *, use_ports_identity):
    """Queue every batch in ``order`` on a fresh round, tick, and return
    per-destination inbox contents as comparable sorted multisets."""
    for i in order:
        v, dsts = batches[i]
        if use_ports_identity and dsts and len(dsts) == net.degree(v):
            dsts = net.ports(v)  # the cached-list identity fast lane
        net.send_many(v, dsts, "wave", 7)
    inboxes = net.tick()
    return {
        _REPR(v): sorted((_REPR(m.src), m.kind, m.words) for m in box)
        for v, box in inboxes.items()
    }


@given(fanout_schedules())
@settings(max_examples=25, deadline=None)
def test_inboxes_invariant_under_issue_order(case):
    """Round delivery content is a set-function of the queued batches:
    permuting which vertex calls ``send_many`` first changes nothing, and
    the vectorized engine agrees with the reference oracle."""
    graph, batches, perm = case
    identity = list(range(len(batches)))
    ref = _inbox_sets(ReferenceNetwork(graph), batches, identity,
                      use_ports_identity=False)
    vec_same = _inbox_sets(VectorizedNetwork(graph), batches, identity,
                           use_ports_identity=True)
    vec_perm = _inbox_sets(VectorizedNetwork(graph), batches, perm,
                           use_ports_identity=True)
    assert vec_same == ref
    assert vec_perm == ref


@given(fanout_schedules(),
       st.lists(st.integers(min_value=0, max_value=11), max_size=4))
@settings(max_examples=25, deadline=None)
def test_word_accounting_conserved_across_backends(case, wide_words):
    """sum(queued_arc_loads) == total queued slots, on every engine, with
    the numpy kernel and its pure-python twin agreeing arc-for-arc; after
    delivery the loads drain and the metrics agree."""
    graph, batches, _ = case
    nets = {name: ENGINES[name](graph, strict=False) for name in ENGINES}
    for net in nets.values():
        net.flood_all("flood", None)
        for v, dsts in batches:
            net.send_many(v, dsts, "wave", 3)
        for i, n_items in enumerate(wide_words):
            src = sorted(graph.nodes, key=_REPR)[i % net.n]
            for dst in net.ports(src):
                net.send(src, dst, "wide", list(range(n_items)))

    ref = nets["reference"]
    limit = ref.message_word_limit
    expected_slots = 0
    expected_words = 0
    for v in ref.nodes():
        expected_slots += ref.degree(v)  # the flood, one slot per arc
        expected_words += ref.degree(v) * words_of(None)
    for v, dsts in batches:
        expected_slots += len(dsts)
        expected_words += len(dsts) * words_of(3)
    for i, n_items in enumerate(wide_words):
        src = sorted(graph.nodes, key=_REPR)[i % ref.n]
        w = words_of(list(range(n_items)))
        slots = 1 if w <= limit else -(-w // limit)
        expected_slots += slots * ref.degree(src)
        expected_words += w * ref.degree(src)

    vec = nets["vectorized"]
    loads = vec.queued_arc_loads()
    assert loads == vec._queued_arc_loads_py()
    assert loads == nets["fastpath"].queued_arc_loads()
    assert sum(loads) == expected_slots
    assert sum(ref.queued_arc_loads()) == expected_slots

    for name, net in nets.items():
        net.deliver_batch()
        assert sum(net.queued_arc_loads()) == 0, name
        assert net.metrics.message_words == expected_words, name
    assert (nets["vectorized"].metrics.to_dict()
            == nets["reference"].metrics.to_dict())


_MEM_KEYS = st.sampled_from(["t/a", "t/b", "relay/buf", "plain", "ghost"])
_MEM_PREFIXES = st.sampled_from(["t/", "t/a", "relay/", "plain", "nope/"])
_MEM_WORDS = st.integers(min_value=0, max_value=9)
#: Per-vertex ops name their vertex by an index taken modulo ``n``.
_MEM_VERTEX = st.integers(min_value=0, max_value=15)

_MEM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store_all"), _MEM_KEYS, _MEM_WORDS),
        st.tuples(st.just("free_key"), _MEM_KEYS),
        st.tuples(st.just("free_all"), _MEM_PREFIXES),
        st.tuples(st.just("store"), _MEM_VERTEX, _MEM_KEYS, _MEM_WORDS),
        st.tuples(st.just("add"), _MEM_VERTEX, _MEM_KEYS, _MEM_WORDS),
        st.tuples(st.just("free"), _MEM_VERTEX, _MEM_KEYS),
        st.tuples(st.just("free_prefix"), _MEM_VERTEX, _MEM_PREFIXES),
    ),
    min_size=1,
    max_size=24,
)


@given(small_graphs(max_size=8), _MEM_OPS)
@settings(max_examples=200, deadline=None)
def test_meter_snapshots_agree_across_engines(graph, ops):
    """Bulk and per-vertex memory ops, interleaved, leave byte-identical
    meter state on every engine.  The meters are read once, at the end:
    reading a high-water settles it, and the lazily settled path (a peak
    reached and released between two touches of a vertex) is the one
    under test."""
    nets = {name: cls(graph) for name, cls in ENGINES.items()}
    for net in nets.values():
        nodes = list(net.nodes())
        for op in ops:
            if op[0] == "store_all":
                net.store_all(op[1], op[2])
            elif op[0] == "free_key":
                net.free_key(op[1])
            elif op[0] == "free_all":
                net.free_all(op[1])
            else:
                meter = net.mem(nodes[op[1] % len(nodes)])
                getattr(meter, op[0])(*op[2:])
    expect = meter_state(nets["reference"])
    for name in ("fastpath", "vectorized"):
        assert meter_state(nets[name]) == expect, name
        assert nets[name].max_memory() == nets["reference"].max_memory(), name
