"""Event-driven protocol API for the CONGEST simulator.

The library's own algorithms are orchestrated procedurally (DESIGN.md,
"Simulation fidelity"), which keeps the complex multi-phase constructions
readable.  Downstream users, however, often want the textbook programming
model: *every vertex runs the same program*, reacting to the messages of
the previous round.  This module provides exactly that:

* subclass :class:`NodeProgram`, implement :meth:`init` and
  :meth:`on_round`;
* :func:`run_protocol` instantiates one program per vertex and drives
  synchronous rounds until every program halts (or a round budget is hit).

Programs talk to the world only through their :class:`NodeApi` -- their id,
their ports, their memory meter, and a ``send`` primitive -- so a program
cannot accidentally read global state.  The halting convention follows the
standard definition: a vertex may halt while messages are still in flight
to it; the protocol terminates when all vertices halted and no messages
remain.

Two reference programs ship with the module and double as documentation:

* :class:`FloodMax` -- classic leader election by flooding the maximum id
  (terminates after D+1 quiet rounds -- here we use an explicit round cap
  supplied by the caller, the standard assumption that n or D is known);
* :class:`BfsProgram` -- BFS tree construction, equivalent to
  :func:`repro.congest.bfs.build_bfs_tree` (a test asserts the same trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from ..errors import InputError
from ..wordsize import words_of
from .memory import MemoryMeter
from .message import Message
from .network import Network

NodeId = Hashable


class NodeApi:
    """The world as one vertex sees it."""

    __slots__ = ("_net", "id", "ports", "_port_set", "memory",
                 "_outgoing", "halted")

    def __init__(self, net: Network, node: NodeId) -> None:
        self._net = net
        self.id = node
        self.ports: List[NodeId] = net.ports(node)
        self._port_set = frozenset(self.ports)
        self.memory: MemoryMeter = net.mem(node)
        self._outgoing: List[Message] = []
        self.halted = False

    def send(self, to: NodeId, kind: str, payload: Any = None) -> None:
        """Queue a message to a neighbour for the next round."""
        if to not in self._port_set:
            raise InputError(f"{self.id!r} has no port to {to!r}")
        self._outgoing.append(Message(src=self.id, dst=to, kind=kind, payload=payload))

    def broadcast(self, kind: str, payload: Any = None) -> None:
        """Send the same message on every port (payload sized once)."""
        words = words_of(payload)
        out = self._outgoing
        src = self.id
        for neighbour in self.ports:
            out.append(Message(src, neighbour, kind, payload, words))

    def halt(self) -> None:
        """Stop participating; ``on_round`` will not be called again."""
        self.halted = True

    def _drain(self) -> List[Message]:
        out, self._outgoing = self._outgoing, []
        return out


class NodeProgram:
    """Base class for per-vertex programs.  Override both hooks."""

    def init(self, api: NodeApi) -> None:
        """Round 0: set up state, optionally send the first messages."""

    def on_round(self, api: NodeApi, inbox: Sequence[Message]) -> None:
        """Called once per round with last round's received messages."""
        raise NotImplementedError


@dataclass
class ProtocolResult:
    """Outcome of a protocol run."""

    __slots__ = ("rounds", "programs", "halted")

    rounds: int
    programs: Dict[NodeId, NodeProgram]
    halted: bool


def run_protocol(
    net: Network,
    make_program: Callable[[NodeId], NodeProgram],
    *,
    max_rounds: int = 10 ** 6,
    max_quiet_rounds: int = 64,
) -> ProtocolResult:
    """Run ``make_program(node_id)`` on every vertex until all halt.

    Returns the programs so callers can read their final state.  Raises
    :class:`InputError` when ``max_rounds`` is exhausted with traffic still
    flowing (a protocol bug).  A protocol that goes *quiet* without a
    unanimous halt (no messages for ``max_quiet_rounds`` consecutive
    rounds -- programs may legitimately count down silently for a while)
    returns with ``halted=False``.
    """
    apis: Dict[NodeId, NodeApi] = {}
    programs: Dict[NodeId, NodeProgram] = {}
    for v in sorted(net.nodes(), key=repr):
        api = NodeApi(net, v)
        program = make_program(v)
        apis[v] = api
        programs[v] = program
        program.init(api)

    rounds = 0
    quiet = 0
    while True:
        if rounds >= max_rounds:
            raise InputError(f"protocol did not halt within {max_rounds} rounds")
        # Phase 1: ship everything queued last round (halted vertices may
        # still have parting messages in their buffers).
        outgoing = 0
        for api in apis.values():
            for msg in api._drain():
                net.send_message(msg)
                outgoing += 1
        inboxes = net.tick()
        rounds += 1
        # Phase 2: every non-halted program observes the round, message or
        # not -- the synchronous model gives every vertex a step per round.
        for v, program in programs.items():
            if not apis[v].halted:
                program.on_round(apis[v], inboxes.get(v, []))
        all_halted = all(api.halted for api in apis.values())
        any_queued = any(api._outgoing for api in apis.values())
        if all_halted and not any_queued:
            return ProtocolResult(rounds=rounds, programs=programs, halted=True)
        if outgoing == 0 and not any_queued:
            quiet += 1
            if quiet >= max_quiet_rounds:
                # Persistently quiescent without a unanimous halt: stuck.
                return ProtocolResult(rounds=rounds, programs=programs, halted=False)
        else:
            quiet = 0


# ---------------------------------------------------------------------------
# Reference programs
# ---------------------------------------------------------------------------

class FloodMax(NodeProgram):
    """Leader election: flood the maximum id for ``diameter_bound`` rounds.

    After the run, every program's ``leader`` equals the globally largest
    vertex id (by repr order, matching the library's deterministic order).
    """

    def __init__(self, diameter_bound: int) -> None:
        self.diameter_bound = diameter_bound
        self.leader: Optional[NodeId] = None
        self._rounds_left = diameter_bound

    def init(self, api: NodeApi) -> None:
        self.leader = api.id
        api.memory.store("floodmax/leader", 1)
        api.broadcast("leader", api.id)

    def on_round(self, api: NodeApi, inbox: Sequence[Message]) -> None:
        best = self.leader
        changed = False
        for msg in inbox:
            if repr(msg.payload) > repr(best):
                best = msg.payload
                changed = True
        self._rounds_left -= 1
        if changed:
            self.leader = best
            api.memory.store("floodmax/leader", 1)
            api.broadcast("leader", best)
        if self._rounds_left <= 0:
            api.halt()


class BfsProgram(NodeProgram):
    """BFS tree construction as a per-vertex program."""

    def __init__(self, root: NodeId) -> None:
        self.root = root
        self.parent: Optional[NodeId] = None
        self.depth: Optional[int] = None

    def init(self, api: NodeApi) -> None:
        if api.id == self.root:
            self.depth = 0
            api.memory.store("bfs/state", 2)
            api.broadcast("wave", 0)
            api.halt()

    def on_round(self, api: NodeApi, inbox: Sequence[Message]) -> None:
        if self.depth is not None:
            api.halt()
            return
        wave = [m for m in inbox if m.kind == "wave"]
        if not wave:
            return
        chosen = min(wave, key=lambda m: repr(m.src))
        self.parent = chosen.src
        self.depth = chosen.payload + 1
        api.memory.store("bfs/state", 2)
        api.broadcast("wave", self.depth)
        api.halt()
