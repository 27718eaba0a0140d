"""The flight recorder: round-resolved memory and congestion sampling.

The paper's headline claim is *per-vertex memory during preprocessing*
(Tables 1-2, "Memory" columns).  The aggregate telemetry of
:mod:`repro.telemetry.events` records high-water marks and span totals;
the flight recorder answers the finer questions those hide: *when* does a
vertex's footprint peak, *which* protocol stage congests *which* edges,
how do messages/words evolve round by round.

A :class:`FlightRecorder` registers as a round observer on a
:class:`~repro.congest.network.Network`
(:func:`attach_flight_recorder`), so networks without one attached pay the
same one-truthiness-check guard as the telemetry event bus — nothing else.
When attached it samples, every ``stride``-th simulated round:

* per-vertex memory meter (``net.mem(v)``) current / high-water words,
  **delta-encoded** (only vertices whose values changed since the previous
  sample are stored);
* the per-key-group breakdown (``tree/``, ``relay/``, ...) summed over
  vertices (``net.memory_by_group()``: column sums on ``Network``, no
  per-vertex :meth:`~repro.congest.memory.MemoryMeter.snapshot`);
* that round's traffic and its ``top_edges`` busiest edges.

Samples live in a **ring buffer** of ``ring`` entries: when full, the
oldest sample is folded into a base snapshot so newer deltas stay
decodable (:meth:`FlightRecorder.vertex_timeline`) while memory stays
bounded on arbitrarily long runs.  Cumulative per-edge and per-phase
congestion totals are kept exactly (bounded by the edge count).

Code that builds its own networks deep inside a sweep cannot call
``attach_flight_recorder`` directly; wrap the call in :class:`auto`::

    from repro.telemetry import flight

    with flight.auto(stride=4) as session:
        fig_tree_rounds()          # every Network built inside is recorded
    for rec in session.recorders:
        print(rec.summary())

``auto`` pushes a session onto a module-level stack that
``Network.__init__`` tests for truthiness — the recorder is **off by
default** and adds zero overhead when no session is active.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, Iterable, List, Optional, Tuple

#: Active ``auto`` sessions.  Empty list == flight recording disabled;
#: ``Network.__init__`` tests truthiness only (the event-bus guard).
_SESSIONS: List["auto"] = []


@dataclass
class FlightConfig:
    """Knobs bounding the recorder's overhead."""

    stride: int = 1  #: sample every ``stride``-th simulated round
    ring: int = 4096  #: samples retained; oldest folded into the base
    top_edges: int = 8  #: busiest edges stored per sample

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.ring < 1:
            raise ValueError("ring must be >= 1")


@dataclass
class FlightSample:
    """One sampled round: traffic, memory aggregate, per-vertex deltas."""

    round_index: int
    phase: Optional[str]
    messages: int
    words: int
    mem_current_max: int
    mem_current_mean: float
    mem_high_water_max: int
    prefixes: Dict[str, int] = field(default_factory=dict)
    edges: List[Tuple[Any, Any, int, int]] = field(default_factory=list)
    vertex_delta: Dict[Hashable, Tuple[int, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round_index,
            "phase": self.phase,
            "messages": self.messages,
            "words": self.words,
            "mem_current_max": self.mem_current_max,
            "mem_current_mean": round(self.mem_current_mean, 2),
            "mem_high_water_max": self.mem_high_water_max,
            "prefixes": dict(self.prefixes),
            "edges": [
                {"src": repr(u), "dst": repr(v), "messages": m, "words": w}
                for u, v, m, w in self.edges
            ],
            "vertex_delta": {
                repr(v): [cur, hw] for v, (cur, hw) in self.vertex_delta.items()
            },
        }


@dataclass
class ChargeEvent:
    """One analytic ``charge_rounds`` event."""

    at_round: int
    rounds: int
    messages: int
    words: int
    phase: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_round": self.at_round,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "phase": self.phase,
        }


class FlightRecorder:
    """Round observer recording the flight data of one network run."""

    def __init__(self, config: Optional[FlightConfig] = None, **knobs: Any):
        if config is None:
            config = FlightConfig(**knobs)
        elif knobs:
            raise TypeError("pass either a FlightConfig or knobs, not both")
        self.config = config
        self.samples: Deque[FlightSample] = deque()
        self.charges: List[ChargeEvent] = []
        self.rounds_seen = 0
        self.total_messages = 0
        self.total_words = 0
        self.n = 0
        #: cumulative per-edge traffic over *all* rounds: (u, v) -> [msgs, words]
        self.edge_totals: Dict[Tuple[Any, Any], List[int]] = {}
        #: vertex state as of just before the oldest retained sample
        self._base: Dict[Hashable, Tuple[int, int]] = {}
        self._last: Dict[Hashable, Tuple[int, int]] = {}
        self._evicted = 0

    # -- attachment ----------------------------------------------------------

    def attach(self, net: Any) -> "FlightRecorder":
        """Register on ``net``'s observer hook; returns self for chaining."""
        self.n = net.n
        net.add_round_observer(self)
        return self

    # -- observer callbacks --------------------------------------------------

    def on_round(self, net: Any, delivered: Iterable[Any], words: int) -> None:
        self.rounds_seen += 1
        count = 0
        phase = net.metrics.phase_name
        per_edge: Dict[Tuple[Any, Any], List[int]] = {}
        for msg in delivered:
            count += 1
            edge = (msg.src, msg.dst)
            entry = self.edge_totals.get(edge)
            if entry is None:
                entry = self.edge_totals[edge] = [0, 0]
            entry[0] += 1
            entry[1] += msg.words
            e = per_edge.get(edge)
            if e is None:
                e = per_edge[edge] = [0, 0]
            e[0] += 1
            e[1] += msg.words
        self.total_messages += count
        self.total_words += words
        if self.rounds_seen % self.config.stride:
            return
        self._sample(net, count, words, phase, per_edge)

    def on_charge(self, net: Any, rounds: int, messages: int,
                  words: int) -> None:
        self.charges.append(ChargeEvent(
            at_round=net.metrics.rounds,
            rounds=rounds,
            messages=messages,
            words=words,
            phase=net.metrics.phase_name,
        ))

    # -- sampling ------------------------------------------------------------

    def _sample(
        self,
        net: Any,
        messages: int,
        words: int,
        phase: Optional[str],
        per_edge: Dict[Tuple[Any, Any], List[int]],
    ) -> None:
        cur_max = 0
        cur_sum = 0
        hw_max = 0
        delta: Dict[Hashable, Tuple[int, int]] = {}
        last = self._last
        for v in net.nodes():
            meter = net.mem(v)
            cur = meter.current
            hw = meter.high_water
            cur_sum += cur
            if cur > cur_max:
                cur_max = cur
            if hw > hw_max:
                hw_max = hw
            state = (cur, hw)
            if last.get(v, (0, 0)) != state:
                delta[v] = state
                last[v] = state
        top = sorted(per_edge.items(), key=lambda kv: kv[1][1], reverse=True)
        sample = FlightSample(
            round_index=net.metrics.rounds,
            phase=phase,
            messages=messages,
            words=words,
            mem_current_max=cur_max,
            mem_current_mean=cur_sum / max(1, self.n),
            mem_high_water_max=hw_max,
            prefixes=net.memory_by_group(),
            edges=[(u, v, m, w)
                   for (u, v), (m, w) in top[: self.config.top_edges]],
            vertex_delta=delta,
        )
        if len(self.samples) >= self.config.ring:
            evicted = self.samples.popleft()
            self._base.update(evicted.vertex_delta)
            self._evicted += 1
        self.samples.append(sample)

    # -- reconstruction ------------------------------------------------------

    def vertex_timeline(self, v: Hashable) -> List[Tuple[int, int, int]]:
        """Decode the delta store for one vertex.

        Returns ``(round_index, current, high_water)`` per retained sample;
        a vertex absent from a sample's delta keeps its previous values.
        """
        state = self._base.get(v, (0, 0))
        out: List[Tuple[int, int, int]] = []
        for sample in self.samples:
            state = sample.vertex_delta.get(v, state)
            out.append((sample.round_index, state[0], state[1]))
        return out

    def peak_memory_sample(self) -> Optional[FlightSample]:
        """The retained sample with the largest per-vertex current footprint."""
        if not self.samples:
            return None
        return max(self.samples, key=lambda s: s.mem_current_max)

    def busiest_edges(self, k: int = 8) -> List[Tuple[Any, Any, int, int]]:
        """Top-``k`` edges by cumulative words over the whole run."""
        ranked = sorted(self.edge_totals.items(), key=lambda kv: kv[1][1],
                        reverse=True)
        return [(u, v, m, w) for (u, v), (m, w) in ranked[:k]]

    # -- reporting -----------------------------------------------------------

    def summary(self) -> str:
        peak = self.peak_memory_sample()
        lines = [
            f"flight: {self.rounds_seen} rounds observed, "
            f"{len(self.samples)} samples retained "
            f"(stride {self.config.stride}, {self._evicted} folded), "
            f"{self.total_messages} msgs / {self.total_words} words",
        ]
        if peak is not None:
            lines.append(
                f"  memory peak: {peak.mem_current_max}w/vertex at round "
                f"{peak.round_index} (phase {peak.phase or '-'})"
            )
        for u, v, m, w in self.busiest_edges(3):
            lines.append(f"  hot edge {u!r}->{v!r}: {m} msgs, {w} words")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: one entry of a RunRecord's ``flight`` list."""
        return {
            "config": {
                "stride": self.config.stride,
                "ring": self.config.ring,
                "top_edges": self.config.top_edges,
            },
            "n": self.n,
            "rounds_seen": self.rounds_seen,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "evicted_samples": self._evicted,
            "base": {repr(v): [c, h] for v, (c, h) in self._base.items()},
            "samples": [s.to_dict() for s in self.samples],
            "charges": [c.to_dict() for c in self.charges],
            "busiest_edges": [
                {"src": repr(u), "dst": repr(v), "messages": m, "words": w}
                for u, v, m, w in self.busiest_edges(self.config.top_edges)
            ],
        }


def attach_flight_recorder(net: Any, **knobs: Any) -> FlightRecorder:
    """Attach a fresh :class:`FlightRecorder` to ``net`` and return it."""
    return FlightRecorder(**knobs).attach(net)


class auto:
    """``with flight.auto(stride=4) as session:`` — record every network.

    While the block is open, each :class:`~repro.congest.network.Network`
    constructed attaches its own fresh :class:`FlightRecorder` (configured
    from the session's knobs) and registers it on ``session.recorders`` in
    construction order.  Sessions nest; the innermost wins.
    """

    def __init__(self, **knobs: Any):
        self.config = FlightConfig(**knobs)
        self.recorders: List[FlightRecorder] = []

    def attach(self, net: Any) -> FlightRecorder:
        recorder = FlightRecorder(FlightConfig(
            stride=self.config.stride,
            ring=self.config.ring,
            top_edges=self.config.top_edges,
        )).attach(net)
        self.recorders.append(recorder)
        return recorder

    def __enter__(self) -> "auto":
        _SESSIONS.append(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        try:
            _SESSIONS.remove(self)
        except ValueError:
            pass
        return False

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [r.to_dict() for r in self.recorders]
