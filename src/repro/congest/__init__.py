"""CONGEST-model network simulator (substrate S1-S2 of DESIGN.md).

Public surface:

* :class:`~repro.congest.network.Network` -- the round-synchronous simulator
  with per-edge capacity, message word limits, and per-vertex memory meters
  (the fast-path engine: CSR adjacency, cached port tables, batched sends);
* :class:`~repro.congest.reference.ReferenceNetwork` -- the frozen seed
  engine, kept as the oracle for the differential harness;
* ``ENGINES`` -- name -> class registry of the two round engines, the
  backbone of the engine-parametrized test fixtures;
* :class:`~repro.congest.memory.MemoryMeter` -- per-vertex word accounting;
* :class:`~repro.congest.message.Message`;
* :func:`~repro.congest.bfs.build_bfs_tree` / :class:`~repro.congest.bfs.BfsTree`;
* :func:`~repro.congest.broadcast.broadcast_all` (Lemma 1) and
  :func:`~repro.congest.broadcast.convergecast_aggregate`;
* forest primitives :func:`~repro.congest.primitives.flood_down`,
  :func:`~repro.congest.primitives.convergecast_up`, and
  :class:`~repro.congest.primitives.Forest`;
* :class:`~repro.congest.metrics.RunMetrics`.
"""

from .bfs import BfsTree, build_bfs_tree
from .broadcast import broadcast_all, convergecast_aggregate
from .memory import MemoryMeter
from .message import Message
from .metrics import PhaseRecord, RunMetrics
from .network import Network
from .primitives import Forest, convergecast_up, flood_down
from .reference import ReferenceNetwork
from .protocol import (
    BfsProgram,
    FloodMax,
    NodeApi,
    NodeProgram,
    ProtocolResult,
    run_protocol,
)
from .trace import ChargeSample, RoundSample, RoundTrace, attach_trace

#: The spec engine and the production engine behind one duck-typed contract,
#: by name.  Test fixtures and the differential harness parametrize over
#: this registry; both accept the same constructor signature.
ENGINES = {
    "reference": ReferenceNetwork,
    "fastpath": Network,
}

__all__ = [
    "BfsProgram",
    "BfsTree",
    "FloodMax",
    "NodeApi",
    "NodeProgram",
    "ProtocolResult",
    "run_protocol",
    "ChargeSample",
    "RoundSample",
    "RoundTrace",
    "attach_trace",
    "ENGINES",
    "Forest",
    "MemoryMeter",
    "Message",
    "Network",
    "PhaseRecord",
    "ReferenceNetwork",
    "RunMetrics",
    "broadcast_all",
    "build_bfs_tree",
    "convergecast_aggregate",
    "convergecast_up",
    "flood_down",
]
