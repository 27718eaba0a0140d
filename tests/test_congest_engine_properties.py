"""Property-based tests (hypothesis): ``Network`` vs ``ReferenceNetwork``.

Three invariants that must hold for *any* fanout schedule, not just the
replays pinned by the differential matrix:

* **Permutation invariance** — the per-destination inbox contents of a
  round are a function of *what* was sent, not of the order in which the
  sending vertices issued their ``send_many`` calls; and they agree with
  the reference engine.
* **Word-accounting conservation** — after delivery the word meters equal
  the total width of everything queued (floods, partial fanouts, wide
  multi-slot payloads) on both engines.
* **Meter-snapshot parity** — any interleaving of network-level bulk
  memory ops (``store_all`` / ``free_key`` / ``free_all``) and per-vertex
  meter ops (``store`` / ``add`` / ``free`` / ``free_prefix``) leaves
  identical meter state (current, high-water, both breakdowns,
  prefix-scan pin) on both engines.

Examples are kept modest (the differential fuzzer already hammers volume);
these exist to let hypothesis *shrink* any structural counterexample.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.congest import Network, ReferenceNetwork
from repro.wordsize import words_of

from .differential.harness import ENGINES, meter_state

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
    the fast path agrees with the reference oracle."""
    graph, batches, perm = case
    identity = list(range(len(batches)))
    ref = _inbox_sets(ReferenceNetwork(graph), batches, identity,
                      use_ports_identity=False)
    fast_same = _inbox_sets(Network(graph), batches, identity,
                            use_ports_identity=True)
    fast_perm = _inbox_sets(Network(graph), batches, perm,
                            use_ports_identity=True)
    assert fast_same == ref
    assert fast_perm == ref


@given(fanout_schedules(),
       st.lists(st.integers(min_value=0, max_value=11), max_size=4))
@settings(max_examples=25, deadline=None)
def test_word_accounting_conserved_across_engines(case, wide_words):
    """Delivered words == total queued width on both engines, and the
    metrics (including the extra rounds charged for wide payloads) agree."""
    graph, batches, _ = case
    nets = {name: ENGINES[name](graph, strict=False) for name in ENGINES}
    for net in nets.values():
        for v in net.nodes():
            net.send_many(v, net.ports(v), "flood", None)
        for v, dsts in batches:
            net.send_many(v, dsts, "wave", 3)
        for i, n_items in enumerate(wide_words):
            src = sorted(graph.nodes, key=_REPR)[i % net.n]
            for dst in net.ports(src):
                net.send(src, dst, "wide", list(range(n_items)))

    ref = nets["reference"]
    expected_words = 0
    for v in ref.nodes():
        expected_words += ref.degree(v) * words_of(None)  # the flood
    for v, dsts in batches:
        expected_words += len(dsts) * words_of(3)
    for i, n_items in enumerate(wide_words):
        src = sorted(graph.nodes, key=_REPR)[i % ref.n]
        expected_words += words_of(list(range(n_items))) * ref.degree(src)

    for name, net in nets.items():
        net.deliver_batch()
        assert net.metrics.message_words == expected_words, name
    assert (nets["fastpath"].metrics.to_dict()
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
    meter state on both engines.  The meters are read once, at the end:
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
    assert meter_state(nets["fastpath"]) == meter_state(nets["reference"])
    assert nets["fastpath"].max_memory() == nets["reference"].max_memory()
