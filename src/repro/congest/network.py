"""The CONGEST network simulator (fast-path round engine).

A :class:`Network` wraps a weighted undirected :mod:`networkx` graph.  Every
vertex hosts a processor with a memory meter (``mem(v)``, answered by the
network's :class:`~repro.congest.memory.MemoryBank`); processors
communicate in synchronous rounds by exchanging messages along edges.
A message is the ``(src, dst, payload)`` tuple its sender names: the
engine queues and delivers that tuple object itself and owns its width,
sized once at send (one word for a bare scalar, ``words_of`` otherwise).

Model enforcement
-----------------
* The graph is non-empty, undirected, simple (not a multigraph, whose
  ``graph[u][v]`` holds edge keys rather than a weight), connected and
  free of self-loops (:class:`~repro.errors.InputError` naming the defect
  otherwise), and ``message_word_limit`` and ``edge_capacity`` are at
  least 1 (an ``InputError`` naming the limit otherwise).
* Messages may only traverse edges of the graph
  (:class:`~repro.errors.CongestModelViolation` otherwise).
* At most ``edge_capacity`` messages (default 1) traverse each edge
  *direction* per round.
* Payloads are at most ``message_word_limit`` machine words (default 4,
  covering "a vertex id, an edge weight, a distance, plus a constant number
  of tags" -- the CONGEST RAM model of Section 2).  Algorithms that
  legitimately batch wider payloads (the O(log n)-word light-edge lists of
  Section 3.2) declare the width and the simulator charges
  ``ceil(words / message_word_limit)`` rounds worth of capacity for them.

Fast path
---------
Graphs are immutable once a :class:`Network` wraps them, so ``__init__``
compiles what the per-round hot loops read, and nothing else, and those
loops never touch :mod:`networkx` again:

* **compact integer vertex ids** (``_id_of`` / ``_node_of``, in
  ``graph.nodes`` order) and **precomputed port tables**: :meth:`ports`
  returns a cached list built once per vertex (the seed engine re-ran
  ``sorted(..., key=repr)`` on every call); :meth:`neighbors` iterates it;
* **one arc map per vertex**: every directed edge (arc) gets a dense
  integer id, vertex by vertex in port order, and ``_arc_map[src]`` maps
  each neighbour to its arc id, so a message costs two dict lookups and
  allocates no ``(src, dst)`` tuple; construction allocates no per-arc
  object beyond the map entry and its id;
* **array-backed edge loads**: per-round capacity accounting indexes a
  flat list by arc id instead of hashing ``(src, dst)`` tuples into a
  ``defaultdict``, and :meth:`tick` resets only the arcs actually touched;
* **lazy reads**: :meth:`weight` reads the graph, as the reference engine
  does, and a vertex's memory view is made on its first :meth:`mem`;
* **one send per round**: :meth:`send_each` is the only way to queue
  messages; it queues a round of ``(src, dst, payload)`` messages in one
  call, with the engine state it touches read once per call rather than
  once per message, and the word total accumulated as it goes;
* **no per-message object**: the outbox holds the senders' own tuples (a
  non-tuple triple is converted once), a one-word payload is sized by a
  type test instead of a ``words_of`` call, and :meth:`deliver_batch`
  hands the round back as one flat list for callers that do not need
  per-destination inboxes.

All observable behaviour — message order, inbox ordering, metrics,
memory accounting, bus events, and byte-for-byte ``strict``
:class:`~repro.errors.CongestModelViolation` messages — is identical to the
reference engine (:class:`~repro.congest.reference.ReferenceNetwork`); the
differential harness under ``tests/differential/`` enforces this across
randomized protocols, topologies and seeds.  See ``docs/performance.md``.

Round accounting
----------------
``tick()`` delivers the queued messages and advances the round counter.
``charge_rounds(r)`` adds ``r`` analytically-derived rounds for phases that
are cost-charged instead of literally simulated (pipelined broadcast bodies,
hopset construction); see DESIGN.md.  It is the one charge path (a wide
message's extra slots go through it) as ``_end_round`` is the one
round-close path: each updates ``self.metrics``, then tells the telemetry
bus's listeners.  Benchmarks report ``metrics.total_rounds``.

The simulator is deliberately *orchestrated*: algorithm code drives rounds
procedurally (``send_each`` / ``tick`` loops) rather than via per-node
state machines.  Information still only moves along edges, one hop per
round, which is what makes the round and memory measurements meaningful.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple, cast

import networkx as nx

from ..errors import CongestModelViolation, InputError
from ..telemetry.events import _collectors
from ..wordsize import _ONE_WORD_TYPES, words_of
from .memory import MemoryBank, MeterView
from .metrics import RunMetrics

NodeId = Hashable
#: A message: the ``(src, dst, payload)`` tuple its sender names.
Msg = Tuple[NodeId, NodeId, Any]

#: The arc map of a source that is not a vertex: every lookup misses.
_NO_ARCS: Dict[NodeId, int] = {}


class Network:
    """A synchronous CONGEST network over a weighted undirected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        *,
        message_word_limit: int = 4,
        edge_capacity: int = 1,
        strict: bool = True,
    ) -> None:
        if message_word_limit < 1:
            raise InputError(f"network requires message_word_limit >= 1, "
                             f"got {message_word_limit!r}")
        if edge_capacity < 1:
            raise InputError(f"network requires edge_capacity >= 1, "
                             f"got {edge_capacity!r}")
        if graph.number_of_nodes() == 0:
            raise InputError("network requires a non-empty graph")
        if graph.is_directed():
            raise InputError("network requires an undirected graph")
        if graph.is_multigraph():
            raise InputError(f"network requires a simple graph, not a "
                             f"{type(graph).__name__}")
        if not nx.is_connected(graph):
            raise InputError("network requires a connected graph")
        looped = next(nx.nodes_with_selfloops(graph), None)
        if looped is not None:
            raise InputError(f"network requires a graph without self-loops; "
                             f"vertex {looped!r} has one")
        self.graph = graph
        self.message_word_limit = message_word_limit
        self.edge_capacity = edge_capacity
        self.strict = strict
        self.metrics = RunMetrics()
        self._outbox: List[Msg] = []
        #: Words queued in ``_outbox``, accumulated at send time so closing
        #: a round never re-walks the outbox to sum message widths.
        self._outbox_words = 0

        # -- compile the immutable topology (see module docstring) ----------
        # One pass over the raw adjacency, which lists the vertices in
        # ``graph.nodes`` order: vertex ``i``'s arc ids follow those of
        # vertices ``0 .. i-1``, in port order.
        node_of: List[NodeId] = []
        ports_tab: List[List[NodeId]] = []
        arc_map: Dict[NodeId, Dict[NodeId, int]] = {}
        lo = 0
        for v, nbrs in graph.adjacency():
            port_list = sorted(nbrs, key=repr)
            hi = lo + len(port_list)
            node_of.append(v)
            ports_tab.append(port_list)
            arc_map[v] = dict(zip(port_list, range(lo, hi)))
            lo = hi
        self._node_of = node_of
        self._id_of: Dict[NodeId, int] = {v: i for i, v in enumerate(node_of)}
        #: The one memory record of the network, a column per key, so bulk
        #: memory operations never visit the vertices one by one.
        self._bank = MemoryBank(self._id_of)
        #: ``mem(v)`` views, each made on the vertex's first ``mem`` call.
        self._meters: Dict[NodeId, MeterView] = {}
        self._ports_table = ports_tab
        #: src -> {neighbour: arc id}: a send's edge check and arc lookup.
        self._arc_map = arc_map
        #: Per-arc load counters for the current round, indexed by arc id;
        #: ``_loaded_arcs`` lists the dirty entries so ``tick`` resets only
        #: what was touched instead of clearing all 2m counters.
        self._edge_load: List[int] = [0] * lo
        self._loaded_arcs: List[int] = []
        #: :meth:`hop_diameter_upper_bound`, computed on its first call.
        self._hop_diameter_bound: Optional[int] = None

    # -- topology ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._node_of)

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._node_of)

    def neighbors(self, v: NodeId) -> Iterator[NodeId]:
        """``v``'s neighbours in port order."""
        return iter(self._ports_table[self._id_of[v]])

    def degree(self, v: NodeId) -> int:
        return len(self._ports_table[self._id_of[v]])

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of the edge ``{u, v}`` (1.0 when the graph is unweighted),
        read from the graph as the reference engine reads it."""
        return float(self.graph[u][v].get("weight", 1.0))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._arc_map.get(u, _NO_ARCS)

    def ports(self, v: NodeId) -> List[NodeId]:
        """Deterministically ordered neighbor list ("port numbering").

        Computed once per vertex at construction (graphs are immutable once
        wrapped); every call returns the same cached list.  Treat it as
        read-only.
        """
        return self._ports_table[self._id_of[v]]

    # -- memory ----------------------------------------------------------------

    def mem(self, v: NodeId) -> MeterView:
        """The memory meter of vertex ``v``: a read-only view of the
        network's bank, made on the first call and then cached (the bulk
        calls below are the one way to write it)."""
        try:
            return self._meters[v]
        except KeyError:
            view = self._meters[v] = MeterView(self._bank, self._id_of[v])
            return view

    def memory_high_water(self) -> Dict[NodeId, int]:
        """Per-vertex memory high-water marks, in words."""
        return dict(zip(self._node_of, self._bank.high_waters()))

    def max_memory(self) -> int:
        """Worst per-vertex memory high-water over the run, in words: O(1),
        the bank keeps it exact at every store."""
        return self._bank.peak

    def memory_by_group(self) -> Dict[str, int]:
        """Current words per key group (``mem(v).snapshot()``'s grouping)
        summed over all vertices: the bank's column sums plus each uniform
        key's size times ``n``."""
        return self._bank.by_group()

    def free_all(self, prefix: str) -> None:
        """Free the given key prefix at every vertex (stage teardown): each
        live key under it is dropped as :meth:`free_key` drops it, O(live
        keys) with no per-vertex scan."""
        self._bank.free_all(prefix)

    def free_key(self, key: str) -> None:
        """Free one exact key at every vertex: O(1) for a key stored by
        :meth:`store_all`, O(vertices holding it) otherwise."""
        self._bank.free_key(key)

    def store_each(self, key: str, words_by_vertex: Mapping[NodeId, int]) -> None:
        """``MemoryMeter.store(key, words)`` at every ``v: words`` of the
        mapping, in one call: the key's column is looked up once and the
        high-water marks settled with one lookup per stale epoch."""
        self._bank.store_each(key, words_by_vertex)

    def add_each(self, key: str, vertices: Iterable[NodeId], words: int) -> None:
        """``MemoryMeter.add(key, words)`` at every listed vertex, in one
        call; a vertex listed twice grows twice."""
        self._bank.add_each(key, vertices, words)

    def store_all(self, key: str, words: int) -> None:
        """Store ``words`` under ``key`` at every vertex (stage setup; the
        inverse of :meth:`free_key` for uniform per-vertex buffers).  One
        uniform entry of the network's memory bank, O(1) unless some
        vertices already hold ``key`` on their own."""
        self._bank.store_all(key, words)

    # -- messaging -------------------------------------------------------------

    def send_each(self, sends: Iterable[Msg]) -> None:
        """Queue every ``(src, dst, payload)`` of ``sends`` for delivery at
        the next :meth:`tick`, in order: one call queues a whole round of
        one protocol step.  The tuple itself is what is delivered (a
        non-tuple triple is converted once).  A failing message (a
        non-edge, an unsizable payload, a strict overload) raises with the
        messages before it queued.
        """
        arc_map = self._arc_map
        edge_load = self._edge_load
        loaded = self._loaded_arcs
        outbox = self._outbox
        limit = self.message_word_limit
        capacity = self.edge_capacity
        strict = self.strict
        one_word = _ONE_WORD_TYPES
        queued_words = 0
        try:
            for msg in sends:
                if type(msg) is not tuple:
                    msg = cast(Msg, tuple(msg))
                src, dst, payload = msg
                arc = arc_map.get(src, _NO_ARCS).get(dst)
                if arc is None:
                    raise CongestModelViolation(f"{src!r} -> {dst!r} is not an edge")
                words = 1 if type(payload) in one_word else words_of(payload)
                slots = 1 if words <= limit else -(-words // limit)
                prior = edge_load[arc]
                if strict and slots == 1 and prior >= capacity:
                    raise CongestModelViolation(
                        f"edge {src!r}->{dst!r} over capacity in round "
                        f"{self.metrics.rounds}: {prior + 1} > {capacity}"
                    )
                if not prior:
                    loaded.append(arc)
                edge_load[arc] = prior + slots
                outbox.append(msg)
                queued_words += words
                if slots > 1:
                    # The extra slots of a wide payload are charged rounds.
                    self.charge_rounds(slots - 1)
        finally:
            # A failure leaves the messages before it queued: count them.
            self._outbox_words += queued_words

    def _end_round(self, delivered: List[Msg], words: int) -> None:
        """The one round-close path, of :meth:`tick` / :meth:`deliver_batch`."""
        self.metrics.on_round(len(delivered), words)
        if _collectors:
            for listener in _collectors:
                listener.on_round(self, delivered, words)
        self._outbox = []
        self._outbox_words = 0
        edge_load = self._edge_load
        for arc in self._loaded_arcs:
            edge_load[arc] = 0
        self._loaded_arcs.clear()

    def tick(self) -> Dict[NodeId, List[Msg]]:
        """Deliver queued messages, advance one round, return inboxes."""
        delivered = self._outbox
        words = self._outbox_words
        inboxes: Dict[NodeId, List[Msg]] = defaultdict(list)
        for msg in delivered:
            inboxes[msg[1]].append(msg)
        self._end_round(delivered, words)
        return inboxes

    def deliver_batch(self) -> List[Msg]:
        """Deliver queued messages as one flat list (no per-dst inboxes).

        Same round/metrics/listener semantics as :meth:`tick`, minus the
        cost of grouping by destination — for counting floods, listener-
        only runs, and callers that unpack ``(src, dst, payload)``
        themselves.
        The word total was accumulated at send time, so closing the round
        does not touch the messages at all.
        """
        delivered = self._outbox
        words = self._outbox_words
        self._end_round(delivered, words)
        return delivered

    def charge_rounds(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        """Account for ``rounds`` rounds computed analytically.

        Used by cost-charged phases (DESIGN.md): the state change is computed
        directly while the round/message counters advance by the formula the
        paper proves for that phase.
        """
        if rounds < 0:
            raise InputError("cannot charge a negative number of rounds")
        charged = int(math.ceil(rounds))
        self.metrics.on_charge(charged, messages, words)
        if _collectors:
            for listener in _collectors:
                listener.on_charge(self, charged, messages, words)

    # -- convenience ---------------------------------------------------------------

    def hop_diameter_upper_bound(self) -> int:
        """2 * BFS-depth from an arbitrary vertex: a cheap upper bound on D.

        The topology is immutable, so the BFS runs once per network, on the
        first call; a build asks for the bound from several phases."""
        if self._hop_diameter_bound is None:
            root = next(iter(self.graph.nodes))
            depths = nx.single_source_shortest_path_length(self.graph, root)
            self._hop_diameter_bound = (
                2 * max(depths.values()) if len(depths) > 1 else 0)
        return self._hop_diameter_bound
