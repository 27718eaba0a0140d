"""Property-based tests (hypothesis): ``Network`` vs ``ReferenceNetwork``.

Eight invariants that must hold for *any* schedule, not just the replays
pinned by the differential matrix:

* **Permutation invariance** — the per-destination inbox contents of a
  round are a function of *what* was sent, not of the order in which the
  sending vertices' fan-outs were queued; and they agree with the
  reference engine.
* **Word-accounting conservation** — after delivery the word meters equal
  the total width of everything queued (floods, partial fanouts, wide
  multi-slot payloads) on both engines.
* **Meter-snapshot parity** — any interleaving of the bulk memory ops
  (``store_all`` / ``free_key`` / ``free_all`` / ``store_each`` /
  ``add_each``) leaves identical meter state (current, high-water, both
  breakdowns) on both engines.
* **Batched store parity** — ``store_each(key, m)`` leaves the state of
  the loop of one-vertex ``store_each`` calls over ``m``, whatever
  ``store_all`` / demotion / ``free_key`` did to the key before.
* **Batched add parity** — ``add_each(key, vertices, w)`` leaves the
  state of the per-vertex ``MemoryMeter.add`` loop over ``vertices``,
  repeats included, whatever the key was before.
* **Network peak parity** — after every memory op, ``max_memory()`` (kept
  eagerly by the bank) equals the reference's eager maximum, and at the
  end the largest per-vertex high-water.
* **Batched send parity** — ``send_each(sends)`` equals the loop of
  one-message ``send_each`` calls over ``sends``: error text, arc loads,
  inboxes and metrics.
* **Delivery contract** — a message is the ``(src, dst, payload)`` tuple
  its sender named: both engines deliver equal tuple streams in equal
  per-inbox order, the fast engine hands back the sender's own tuple
  objects, and the flight recorder's per-edge words are the ``words_of``
  sums of what crossed each edge.

Examples are kept modest (the differential fuzzer already hammers volume);
these exist to let hypothesis *shrink* any structural counterexample.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.congest import MemoryMeter, Network, ReferenceNetwork
from repro.errors import CongestModelViolation, InputError
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
    """A graph plus one fan-out per vertex (possibly empty, possibly every
    port) and a random permutation of the issuing order."""
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


def _fan_outs(batches, order, payload):
    """One round's ``(src, dst, payload)`` messages: the fan-outs of
    ``batches`` in ``order``."""
    return [(batches[i][0], dst, payload) for i in order for dst in batches[i][1]]


def _inbox_sets(net, batches, order):
    """Queue every fan-out in ``order`` on a fresh round, tick, and return
    per-destination inbox contents as comparable sorted multisets."""
    net.send_each(_fan_outs(batches, order, 7))
    inboxes = net.tick()
    return {
        _REPR(v): sorted((_REPR(src), payload, words_of(payload))
                         for src, _, payload in box)
        for v, box in inboxes.items()
    }


@given(fanout_schedules())
@settings(max_examples=25, deadline=None)
def test_inboxes_invariant_under_issue_order(case):
    """Round delivery content is a set-function of the queued batches:
    permuting which vertex's fan-out is queued first changes nothing, and
    the fast path agrees with the reference oracle."""
    graph, batches, perm = case
    identity = list(range(len(batches)))
    ref = _inbox_sets(ReferenceNetwork(graph), batches, identity)
    fast_same = _inbox_sets(Network(graph), batches, identity)
    fast_perm = _inbox_sets(Network(graph), batches, perm)
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
        net.send_each([(v, w, None) for v in net.nodes() for w in net.ports(v)])
        net.send_each(_fan_outs(batches, range(len(batches)), 3))
        for i, n_items in enumerate(wide_words):
            src = sorted(graph.nodes, key=_REPR)[i % net.n]
            net.send_each([(src, dst, list(range(n_items)))
                           for dst in net.ports(src)])

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

#: Vertex lists for ``add_each``: repeats are common once taken modulo n.
_MEM_VERTICES = st.lists(_MEM_VERTEX, max_size=8)

_MEM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store_all"), _MEM_KEYS, _MEM_WORDS),
        st.tuples(st.just("free_key"), _MEM_KEYS),
        st.tuples(st.just("free_all"), _MEM_PREFIXES),
        # On a uniform key each of these demotes it first.
        st.tuples(st.just("store_each"), _MEM_KEYS,
                  st.dictionaries(_MEM_VERTEX, _MEM_WORDS, max_size=8)),
        st.tuples(st.just("add_each"), _MEM_KEYS, _MEM_VERTICES, _MEM_WORDS),
    ),
    min_size=1,
    max_size=24,
)


def _batch(nodes, op):
    """A ``store_each`` op's mapping; vertices are indices mod n."""
    return {nodes[i % len(nodes)]: w for i, w in op[2].items()}


def _apply_mem_op(net, nodes, op):
    """One op of ``_MEM_OPS`` on ``net``; vertices are indices mod n."""
    if op[0] == "store_each":
        net.store_each(op[1], _batch(nodes, op))
    elif op[0] == "add_each":
        net.add_each(op[1], [nodes[i % len(nodes)] for i in op[2]], op[3])
    else:
        getattr(net, op[0])(*op[1:])


@given(small_graphs(max_size=8), _MEM_OPS)
@settings(max_examples=200, deadline=None)
def test_meter_snapshots_agree_across_engines(graph, ops):
    """The bulk memory ops, interleaved, leave byte-identical meter state
    on both engines.  The meters are read once, at the end: reading a
    high-water settles it, and the lazily settled path (a peak reached and
    released between two touches of a vertex) is the one under test."""
    nets = {name: cls(graph) for name, cls in ENGINES.items()}
    for net in nets.values():
        nodes = list(net.nodes())
        for op in ops:
            _apply_mem_op(net, nodes, op)
    assert meter_state(nets["fastpath"]) == meter_state(nets["reference"])
    assert nets["fastpath"].max_memory() == nets["reference"].max_memory()


_EACH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store_all"), _MEM_KEYS, _MEM_WORDS),
        st.tuples(st.just("free_key"), _MEM_KEYS),
        st.tuples(st.just("store_each"), _MEM_KEYS,
                  st.dictionaries(_MEM_VERTEX, _MEM_WORDS, max_size=8)),
    ),
    min_size=1,
    max_size=24,
)


@given(small_graphs(max_size=8), _EACH_OPS)
@settings(max_examples=150, deadline=None)
def test_store_each_equals_the_per_vertex_loop(graph, ops):
    """``store_each(key, m)`` leaves the meter state the loop ``for v, w in
    m.items(): store_each(key, {v: w})`` leaves, on a key that is uniform,
    demoted, per-vertex or freed; on ``Network`` and on the reference."""
    nets = {"batched": Network(graph), "looped": Network(graph),
            "reference": ReferenceNetwork(graph)}
    for name, net in nets.items():
        nodes = list(net.nodes())
        for op in ops:
            if op[0] == "store_each" and name == "looped":
                for v, words in _batch(nodes, op).items():
                    net.store_each(op[1], {v: words})
            else:
                _apply_mem_op(net, nodes, op)
    states = {name: meter_state(net) for name, net in nets.items()}
    assert states["batched"] == states["looped"] == states["reference"]
    assert nets["batched"].memory_by_group() == nets["reference"].memory_by_group()


class _MeterLoop:
    """One standalone :class:`MemoryMeter` per vertex, driven one meter
    call at a time: the per-vertex loop ``add_each`` must equal."""

    def __init__(self, graph) -> None:
        self.meters = {v: MemoryMeter() for v in graph}

    def nodes(self):
        return iter(self.meters)

    def mem(self, v):
        return self.meters[v]

    def apply(self, nodes, op) -> None:
        if op[0] == "add_each":
            for i in op[2]:
                self.meters[nodes[i % len(nodes)]].add(op[1], op[3])
        elif op[0] == "store_each":
            for v, words in _batch(nodes, op).items():
                self.meters[v].store(op[1], words)
        else:
            for meter in self.meters.values():
                if op[0] == "store_all":
                    meter.store(op[1], op[2])
                elif op[0] == "free_key":
                    meter.free(op[1])
                else:
                    meter.free_prefix(op[1])


@given(small_graphs(max_size=8), _MEM_OPS)
@settings(max_examples=150, deadline=None)
def test_add_each_equals_the_per_vertex_loop(graph, ops):
    """``add_each(key, vertices, w)`` leaves the meter state of the loop
    ``for v in vertices: MemoryMeter.add(key, w)`` (a vertex listed twice
    grows twice), on a key that is uniform (so demoted first), per-vertex
    or freed, between ``store_all`` / ``free_key`` / ``free_all`` calls;
    on ``Network`` and on the reference."""
    loop = _MeterLoop(graph)
    nets = {name: cls(graph) for name, cls in ENGINES.items()}
    nodes = list(graph.nodes)
    for op in ops:
        loop.apply(nodes, op)
        for net in nets.values():
            _apply_mem_op(net, nodes, op)
    state = meter_state(loop)
    assert meter_state(nets["fastpath"]) == meter_state(nets["reference"]) == state
    assert nets["fastpath"].memory_by_group() == nets["reference"].memory_by_group()


@given(small_graphs(max_size=8), _MEM_OPS)
@settings(max_examples=150, deadline=None)
def test_max_memory_is_the_largest_high_water(graph, ops):
    """``Network.max_memory()`` is kept eagerly by the bank: after every op
    it equals the reference's eager maximum (reading it settles nothing,
    so the lazy high-waters stay unsettled in between), and at the end it
    is the largest per-vertex high-water."""
    nets = {name: cls(graph) for name, cls in ENGINES.items()}
    peaks = {name: [] for name in nets}
    for name, net in nets.items():
        nodes = list(net.nodes())
        for op in ops:
            _apply_mem_op(net, nodes, op)
            peaks[name].append(net.max_memory())
    assert peaks["fastpath"] == peaks["reference"]
    fast = nets["fastpath"]
    assert fast.max_memory() == max(fast.memory_high_water().values())


class _Unsizable:
    """A payload ``words_of`` rejects."""


_PAYLOADS = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=99),
    st.lists(st.integers(min_value=0, max_value=9), max_size=9),  # > 4: wide
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=12)),
    st.just(_Unsizable()),
)


@st.composite
def send_batches(draw):
    """A graph and a batch of ``(src, dst, payload)`` sends: mostly arcs
    (repeats overload them), sometimes a non-edge."""
    graph = draw(small_graphs(max_size=8))
    nodes = sorted(graph.nodes, key=_REPR)
    sends = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        src = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            dst = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        else:
            ports = sorted(graph.neighbors(src), key=_REPR)
            dst = ports[draw(st.integers(min_value=0, max_value=len(ports) - 1))]
        sends.append((src, dst, draw(_PAYLOADS)))
    return graph, sends, draw(st.booleans())


def _arc_loads(net):
    """The current round's per-arc loads, by ``(repr(src), repr(dst))``."""
    if isinstance(net, Network):
        ends = {arc: (src, dst) for src, arcs in net._arc_map.items()
                for dst, arc in arcs.items()}
        loads = {ends[arc]: net._edge_load[arc] for arc in net._loaded_arcs}
    else:
        loads = {arc: load for arc, load in net._edge_load.items() if load}
    return {(_REPR(u), _REPR(v)): load for (u, v), load in loads.items()}


@given(send_batches())
@settings(max_examples=200, deadline=None)
def test_send_each_equals_the_send_loop(case):
    """``send_each(sends)`` leaves what one ``send_each`` call per
    message leaves, a mid-batch failure included: the same error text, the same queued
    messages and arc loads, and after the tick the same inboxes and
    metrics; on ``Network`` and on the reference."""
    graph, sends, strict = case
    nets = {"batched": Network(graph, strict=strict),
            "looped": Network(graph, strict=strict),
            "reference": ReferenceNetwork(graph, strict=strict)}
    seen = {}
    for name, net in nets.items():
        try:
            if name == "looped":
                for message in sends:
                    net.send_each([message])
            else:
                net.send_each(sends)
            error = None
        except (CongestModelViolation, InputError) as exc:
            error = (type(exc).__name__, str(exc))
        loads = _arc_loads(net)
        inboxes = {
            _REPR(v): [(_REPR(src), payload, words_of(payload))
                       for src, _, payload in box]
            for v, box in net.tick().items()
        }
        seen[name] = (error, loads, inboxes, net.metrics.to_dict())
    assert seen["batched"] == seen["looped"] == seen["reference"]


@given(send_batches())
@settings(max_examples=100, deadline=None)
def test_engines_deliver_equal_tuple_streams(case):
    """Both engines deliver the same ``(src, dst, payload)`` tuples in the
    same order, flat and per inbox: the sizable, legal prefix of a random
    batch, queued on a non-strict network, closed once each way."""
    graph, sends, _ = case
    sends = [m for m in sends if not isinstance(m[2], _Unsizable)
             and graph.has_edge(m[0], m[1])]
    streams = {}
    for name, engine in ENGINES.items():
        net = engine(graph, strict=False)
        net.send_each(sends)
        flat = net.deliver_batch()
        net.send_each(sends)
        boxes = net.tick()
        assert all(type(m) is tuple for m in flat)
        streams[name] = (flat, {_REPR(v): box for v, box in boxes.items()})
    assert streams["fastpath"] == streams["reference"]
    assert streams["fastpath"][0] == sends


def test_fast_engine_delivers_the_senders_tuples():
    """``Network`` queues the caller's own tuple objects; a list triple is
    converted once and comes back as an equal tuple."""
    net = Network(nx.path_graph(3))
    sent = (0, 1, (5, 6))
    net.send_each([sent, [1, 2, 7]])
    delivered = net.deliver_batch()
    assert delivered[0] is sent
    assert type(delivered[1]) is tuple and delivered[1] == (1, 2, 7)
    net.send_each([sent])
    assert net.tick()[1][0] is sent


def _flight_run(engine):
    """One small non-strict run inside a flight session: scalar, string,
    container, dict and wide payloads, both ways of closing a round, a
    charge.  Returns the network's recorder and each round's batch."""
    from repro.graphs import random_connected_graph
    from repro.telemetry import flight

    net = engine(random_connected_graph(12, seed=3), strict=False)
    nodes = sorted(net.nodes())
    payloads = [None, 7, 2.5, True, "v12", "x" * 17, (1, 2),
                [1, 2, 3, 4, 5, 6], {1: (2, 3)}]
    batches = []
    with flight.auto(stride=2, top_edges=3) as session:
        for r in range(7):
            net.store_each(f"tree/r{r}", {nodes[r]: r + 1})
            batch = [(v, w, payloads[(r + i) % len(payloads)])
                     for i, v in enumerate(nodes[r:r + 5]) for w in net.ports(v)]
            net.send_each(batch)
            batches.append(batch)
            net.tick() if r % 2 else net.deliver_batch()
        net.charge_rounds(3, messages=4, words=5)
    (recorder,) = session.recorders
    return recorder, batches


def test_flight_recorder_document_is_pinned():
    """The recorder sizes what it is handed itself: its document for one
    small run, less the charge events of wide messages' extra slots, is
    byte-for-byte the one the per-message-object engines wrote (sha256
    pin), on both engines.  Those events are exactly one per wide message,
    at the round it was sent in, and every per-edge total is the
    ``words_of`` sum of the payloads that crossed the edge."""
    import hashlib
    import json

    for engine in ENGINES.values():
        rec, batches = _flight_run(engine)
        doc = rec.to_dict()
        wide = [{"at_round": r, "rounds": -(-words_of(p) // 4) - 1,
                 "messages": 0, "words": 0, "phase": None}
                for r, batch in enumerate(batches) for _, _, p in batch
                if words_of(p) > 4]
        assert wide and doc["charges"][:-1] == wide
        doc["charges"] = doc["charges"][-1:]
        pinned = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(pinned).hexdigest() == (
            "262b1c16146a513089453521d75b1e9281388f36fd42b6737c66af061f0ca21f")
        expected = {}
        for src, dst, payload in (m for batch in batches for m in batch):
            got = expected.setdefault((src, dst), [0, 0])
            got[0] += 1
            got[1] += words_of(payload)
        assert rec.edge_totals == expected
        assert rec.total_words == sum(w for _, w in expected.values())
