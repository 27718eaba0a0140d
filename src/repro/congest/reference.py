"""The reference CONGEST round engine (executable specification).

:class:`ReferenceNetwork` preserves, line for line, the original
dictionary-based simulator that :class:`~repro.congest.network.Network`
shipped with before the fast-path engine landed: per-call
``sorted(..., key=repr)`` port numbering, ``defaultdict`` edge-load
accounting keyed by ``(src, dst)`` tuples, and a full ``words_of`` call
per message, at send and again at delivery.

It exists so the fast path can be *proved* equivalent rather than trusted:
the differential harness under ``tests/differential/`` replays randomized
protocols on both engines and asserts identical round counts, per-edge
message totals, :class:`~repro.congest.metrics.RunMetrics`, per-vertex
memory high-waters, and trace timelines — including byte-identical
:class:`~repro.errors.CongestModelViolation` messages under ``strict``.

The class mirrors the full public ``Network`` surface (duck-typed — every
algorithm in the library runs unmodified on either engine, and
``tests/test_congest_network.py`` holds the two public surfaces equal).
Its :meth:`send_each` queues one message at a time through the
per-message body the original ``send`` had, as a fresh ``(src, dst,
payload)`` tuple, and :meth:`tick` / :meth:`deliver_batch` re-size every
payload they deliver, so batching changes *performance only*, never
semantics.

Do not optimise this module.  Its value is being obviously correct and
frozen; speed belongs in :mod:`repro.congest.network`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Tuple

import networkx as nx

from ..errors import CongestModelViolation, InputError
from ..telemetry.events import _collectors
from ..wordsize import words_of
from .memory import MemoryMeter

NodeId = Hashable
Msg = Tuple[NodeId, NodeId, Any]


class ReferenceNetwork:
    """The seed CONGEST simulator, kept as the differential-test oracle."""

    def __init__(
        self,
        graph: nx.Graph,
        *,
        message_word_limit: int = 4,
        edge_capacity: int = 1,
        strict: bool = True,
    ) -> None:
        from .metrics import RunMetrics

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
        for v in graph:
            if graph.has_edge(v, v):
                raise InputError(f"network requires a graph without self-loops; "
                                 f"vertex {v!r} has one")
        self.graph = graph
        self.message_word_limit = message_word_limit
        self.edge_capacity = edge_capacity
        self.strict = strict
        self.metrics = RunMetrics()
        self._meters: Dict[NodeId, MemoryMeter] = {v: MemoryMeter() for v in graph}
        self._outbox: List[Msg] = []
        self._edge_load: Dict[Tuple[NodeId, NodeId], int] = defaultdict(int)

    # -- topology ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.number_of_nodes()

    def nodes(self) -> Iterator[NodeId]:
        return iter(self.graph.nodes)

    def neighbors(self, v: NodeId) -> Iterator[NodeId]:
        """``v``'s neighbours in port order, as on the fast path."""
        return iter(self.ports(v))

    def degree(self, v: NodeId) -> int:
        return self.graph.degree(v)

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of the edge ``{u, v}`` (1.0 when the graph is unweighted)."""
        return float(self.graph[u][v].get("weight", 1.0))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self.graph.has_edge(u, v)

    def ports(self, v: NodeId) -> List[NodeId]:
        """Deterministically ordered neighbor list ("port numbering").

        The reference engine re-sorts on every call — the exact cost the
        fast path's precomputed port tables eliminate.
        """
        return sorted(self.graph.neighbors(v), key=repr)

    # -- memory ----------------------------------------------------------------

    def mem(self, v: NodeId) -> MemoryMeter:
        """The memory meter of vertex ``v``."""
        return self._meters[v]

    def memory_high_water(self) -> Dict[NodeId, int]:
        """Per-vertex memory high-water marks, in words."""
        return {v: meter.high_water for v, meter in self._meters.items()}

    def max_memory(self) -> int:
        """Worst per-vertex memory high-water over the run, in words."""
        return max(meter.high_water for meter in self._meters.values())

    def memory_by_group(self) -> Dict[str, int]:
        """Current words per key group, summed over every meter's
        ``snapshot()``."""
        out: Dict[str, int] = {}
        for meter in self._meters.values():
            for group, words in meter.snapshot().items():
                out[group] = out.get(group, 0) + words
        return out

    def free_all(self, prefix: str) -> None:
        """Free the given key prefix at every vertex (stage teardown)."""
        for meter in self._meters.values():
            meter.free_prefix(prefix)

    def free_key(self, key: str) -> None:
        """Free one exact key at every vertex (O(n), no key scans)."""
        for meter in self._meters.values():
            meter.free(key)

    def store_all(self, key: str, words: int) -> None:
        """Store ``words`` under ``key`` at every vertex (stage setup)."""
        for meter in self._meters.values():
            meter.store(key, words)

    def store_each(self, key: str, words_by_vertex: Mapping[NodeId, int]) -> None:
        """Store ``words`` under ``key`` at every ``v: words`` of the mapping."""
        for v, words in words_by_vertex.items():
            self.mem(v).store(key, words)

    def add_each(self, key: str, vertices: Iterable[NodeId], words: int) -> None:
        """Grow ``key`` by ``words`` at every listed vertex, once per listing."""
        for v in vertices:
            self.mem(v).add(key, words)

    # -- messaging -------------------------------------------------------------

    def send_each(self, sends: Iterable[Msg]) -> None:
        """Queue every ``(src, dst, payload)`` of ``sends`` for delivery at
        the next :meth:`tick`, one message at a time, in order."""
        for src, dst, payload in sends:
            if not self.graph.has_edge(src, dst):
                raise CongestModelViolation(f"{src!r} -> {dst!r} is not an edge")
            slots = max(1, math.ceil(words_of(payload) / self.message_word_limit))
            if self.strict:
                load = self._edge_load[(src, dst)] + slots
                if load > self.edge_capacity and slots == 1:
                    raise CongestModelViolation(
                        f"edge {src!r}->{dst!r} over capacity in round "
                        f"{self.metrics.rounds}: {load} > {self.edge_capacity}"
                    )
            self._edge_load[(src, dst)] += slots
            self._outbox.append((src, dst, payload))
            # Wide payloads occupy several rounds of the edge; charge the extra.
            if slots > 1:
                self.charge_rounds(slots - 1)

    def tick(self) -> Dict[NodeId, List[Msg]]:
        """Deliver queued messages, advance one round, return inboxes."""
        inboxes: Dict[NodeId, List[Msg]] = defaultdict(list)
        words = 0
        for msg in self._outbox:
            src, dst, payload = msg
            inboxes[dst].append(msg)
            words += words_of(payload)
        self._end_round(self._outbox, words)
        return inboxes

    def deliver_batch(self) -> List[Msg]:
        """Deliver queued messages as one flat list (no per-dst inboxes).

        Same round/metrics/listener semantics as :meth:`tick`; only the
        return shape differs.
        """
        delivered = self._outbox
        words = 0
        for src, dst, payload in delivered:
            words += words_of(payload)
        self._end_round(delivered, words)
        return delivered

    def _end_round(self, delivered: List[Msg], words: int) -> None:
        """The one round-close path: count the round, tell the listeners."""
        self.metrics.on_round(len(delivered), words)
        if _collectors:
            for listener in _collectors:
                listener.on_round(self, delivered, words)
        self._outbox = []
        self._edge_load.clear()

    def charge_rounds(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        """Account for ``rounds`` rounds computed analytically (the one
        charge path: a wide message's extra slots come here too)."""
        if rounds < 0:
            raise InputError("cannot charge a negative number of rounds")
        charged = int(math.ceil(rounds))
        self.metrics.on_charge(charged, messages, words)
        if _collectors:
            for listener in _collectors:
                listener.on_charge(self, charged, messages, words)

    # -- convenience ---------------------------------------------------------------

    def hop_diameter_upper_bound(self) -> int:
        """2 * BFS-depth from an arbitrary vertex: a cheap upper bound on D."""
        root = next(iter(self.graph.nodes))
        depths = nx.single_source_shortest_path_length(self.graph, root)
        return 2 * max(depths.values()) if len(depths) > 1 else 0
