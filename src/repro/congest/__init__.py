"""CONGEST-model network simulator (substrate S1-S2 of DESIGN.md).

Public surface:

* :class:`~repro.congest.network.Network` -- the round-synchronous simulator
  with per-edge capacity, message word limits, and per-vertex memory meters
  (the fast-path engine: cached port tables, one arc map per vertex);
  ``send_each([(src, dst, payload), ...])`` is the one way to queue
  a round's messages on either engine, and a message is that
  ``(src, dst, payload)`` tuple (the engine owns its width);
* :class:`~repro.congest.reference.ReferenceNetwork` -- the frozen seed
  engine, kept as the oracle for the differential harness;
* :class:`~repro.congest.memory.MemoryMeter` -- one vertex's word accounting,
  the specification of the network's column bank (``Network.mem(v)``);
* :func:`~repro.congest.bfs.build_bfs_tree` / :class:`~repro.congest.bfs.BfsTree`;
* :func:`~repro.congest.broadcast.broadcast_all` (Lemma 1) and
  :func:`~repro.congest.broadcast.convergecast_aggregate`;
* forest primitives :func:`~repro.congest.primitives.convergecast_up` and
  :class:`~repro.congest.primitives.Forest`;
* :class:`~repro.congest.metrics.RunMetrics`.
"""

from .bfs import BfsTree, build_bfs_tree
from .broadcast import broadcast_all, convergecast_aggregate
from .memory import MemoryMeter
from .metrics import PhaseRecord, RunMetrics
from .network import Network
from .primitives import Forest, convergecast_up
from .reference import ReferenceNetwork

__all__ = [
    "BfsTree",
    "Forest",
    "MemoryMeter",
    "Network",
    "PhaseRecord",
    "ReferenceNetwork",
    "RunMetrics",
    "broadcast_all",
    "build_bfs_tree",
    "convergecast_aggregate",
    "convergecast_up",
]
