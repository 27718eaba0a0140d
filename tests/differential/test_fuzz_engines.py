"""Seeded protocol fuzzer: random message schedules on both engines.

Unlike the replay tests (which drive real algorithm code), the fuzzer
generates adversarial *raw* schedules — including deliberate capacity
violations and non-edge sends — and asserts the engines fail identically:
same :class:`~repro.errors.CongestModelViolation` at the same operation, in
the same round, with the byte-identical message.  After a violation each
engine must also be left in the same state (the schedule keeps going), so
post-exception divergence cannot hide.  Besides outcomes and metrics, the
post-run check covers the whole per-vertex meter state (current,
high-water, both breakdowns, the ``last_prefix_scan`` pin), so neither the
bulk bookkeeping nor a lazily settled high-water can drift.  The meters
are read once, after the schedule: reading a high-water settles it, so a
mid-run read would hide exactly the laziness under test.

Schedules are generated once per seed and applied to each engine
independently; everything is derived from ``random.Random(seed)``, so a
failing case reproduces from its pytest id alone.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import pytest

from repro.congest import Network, ReferenceNetwork
from repro.errors import CongestModelViolation

from .harness import QUICK, TOPOLOGIES, build_topology, meter_state, run_fingerprint

_KEYS = ["fz/a", "fz/b", "relay/fz", "plain"]

FUZZ_SEEDS = range(4) if QUICK else range(30)
TOPO_NAMES = sorted(TOPOLOGIES)


def make_schedule(graph: Any, seed: int, *, rounds: int = 12) -> List[Tuple]:
    """A deterministic random schedule of engine operations.

    Ops:
      ("send", src, dst, kind, payload)        -- dst may be a NON-neighbor
      ("send_many", src, dsts, kind, payload)  -- dsts may contain a non-edge
      ("flood", payload)                       -- every vertex, all its ports
      ("close", "tick" | "deliver")            -- end the round either way
      ("idle", k) / ("charge", r, m, w)        -- accounting paths
      ("mem", v, key, words) / ("free", prefix) / ("free_key", key)
      ("store_all", key, words)                -- uniform network-wide store
      ("mem_add", v, key, words) / ("mem_free", v, key)
      ("mem_free_prefix", v, prefix)           -- one vertex deviates

    Capacity violations arise naturally: several sends may pick the same
    directed edge within one round, and a ``flood`` after any send on a
    strict network overloads the first already-loaded arc it reaches —
    mid-batch, inside the full-fanout lane of ``send_many``.  Wide
    payloads (> word limit) exercise the multi-slot charging path, which
    must never raise.
    """
    rng = random.Random(seed * 6151 + 17)
    nodes = sorted(graph.nodes, key=repr)
    neighbors = {v: sorted(graph.neighbors(v), key=repr) for v in nodes}
    schedule: List[Tuple] = []
    for _ in range(rounds):
        for _ in range(rng.randrange(0, 10)):
            roll = rng.random()
            src = rng.choice(nodes)
            if roll < 0.50:
                # Mostly-legal single sends; ~1 in 12 aims at a non-edge.
                if rng.random() < 0.08:
                    dst = rng.choice(nodes)
                else:
                    dst = rng.choice(neighbors[src])
                payload = rng.choice(
                    [None, rng.randrange(100), list(range(rng.randrange(5, 9)))]
                )
                schedule.append(("send", src, dst, "fuzz", payload))
            elif roll < 0.78:
                dsts = rng.sample(
                    neighbors[src], rng.randrange(1, len(neighbors[src]) + 1)
                )
                if rng.random() < 0.1:
                    dsts.insert(rng.randrange(len(dsts) + 1), rng.choice(nodes))
                schedule.append(("send_many", src, dsts, "fan", None))
            elif roll < 0.84:
                payload = rng.choice(
                    [None, rng.randrange(50), list(range(rng.randrange(5, 9)))]
                )
                schedule.append(("flood", payload))
            elif roll < 0.88:
                schedule.append(
                    ("mem", src, rng.choice(_KEYS), rng.randrange(1, 5))
                )
            elif roll < 0.91:
                schedule.append(
                    ("store_all", rng.choice(_KEYS), rng.randrange(0, 5))
                )
            elif roll < 0.925:
                schedule.append(
                    ("mem_add", src, rng.choice(_KEYS), rng.randrange(1, 4))
                )
            elif roll < 0.94:
                schedule.append(("mem_free", src, rng.choice(_KEYS + ["ghost"])))
            elif roll < 0.95:
                schedule.append(
                    ("mem_free_prefix", src,
                     rng.choice(["fz/", "fz/a", "relay/", "plain"]))
                )
            elif roll < 0.965:
                schedule.append(
                    ("free", rng.choice(["fz/", "fz/a", "relay/", "plain"]))
                )
            elif roll < 0.985:
                schedule.append(("free_key", rng.choice(_KEYS + ["ghost"])))
            else:
                schedule.append(
                    ("charge", rng.randrange(0, 3), rng.randrange(0, 4),
                     rng.randrange(0, 6))
                )
        schedule.append(("close", rng.choice(["tick", "deliver"])))
        if rng.random() < 0.15:
            schedule.append(("idle", rng.randrange(1, 3)))
    return schedule


def apply_schedule(net: Any, schedule: List[Tuple]) -> List[Tuple]:
    """Run a schedule, recording each op's observable outcome."""
    outcomes: List[Tuple] = []
    for op in schedule:
        tag = op[0]
        try:
            if tag == "send":
                net.send(op[1], op[2], op[3], op[4])
                outcomes.append(("ok",))
            elif tag == "send_many":
                outcomes.append(("ok", net.send_many(op[1], op[2], op[3], op[4])))
            elif tag == "flood":
                # Handing back ``net.ports(v)`` itself takes the fast path's
                # full-fanout lane; a violation aborts the remaining vertices.
                outcomes.append(("ok", sum(
                    net.send_many(v, net.ports(v), "flood", op[1])
                    for v in net.nodes()
                )))
            elif tag == "close":
                if op[1] == "tick":
                    inboxes = net.tick()
                    outcomes.append((
                        "round",
                        sorted(
                            (repr(v), [(repr(m.src), m.kind, m.words) for m in box])
                            for v, box in inboxes.items()
                        ),
                    ))
                else:
                    delivered = net.deliver_batch()
                    outcomes.append((
                        "round",
                        [(repr(m.src), repr(m.dst), m.kind, m.words)
                         for m in delivered],
                    ))
            elif tag == "idle":
                net.idle_rounds(op[1])
                outcomes.append(("ok",))
            elif tag == "charge":
                net.charge_rounds(op[1], messages=op[2], words=op[3])
                outcomes.append(("ok",))
            elif tag == "mem":
                net.mem(op[1]).store(op[2], op[3])
                outcomes.append(("ok",))
            elif tag == "store_all":
                net.store_all(op[1], op[2])
                outcomes.append(("ok",))
            elif tag == "mem_add":
                net.mem(op[1]).add(op[2], op[3])
                outcomes.append(("ok",))
            elif tag == "mem_free":
                net.mem(op[1]).free(op[2])
                outcomes.append(("ok",))
            elif tag == "mem_free_prefix":
                net.mem(op[1]).free_prefix(op[2])
                outcomes.append(("ok",))
            elif tag == "free":
                net.free_all(op[1])
                outcomes.append(("ok",))
            elif tag == "free_key":
                net.free_key(op[1])
                outcomes.append(("ok",))
        except CongestModelViolation as exc:
            outcomes.append(("violation", str(exc)))
    return outcomes


def _run_fuzz(topo: str, seed: int, *, strict: bool) -> None:
    graph = build_topology(topo, seed)
    schedule = make_schedule(graph, seed)

    ref = ReferenceNetwork(graph, strict=strict)
    ref_outcomes = apply_schedule(ref, schedule)
    ref_waters = {repr(v): hw for v, hw in ref.memory_high_water().items()}
    ref_meters = meter_state(ref)

    net = Network(build_topology(topo, seed), strict=strict)
    outcomes = apply_schedule(net, schedule)
    for i, (op, a, b) in enumerate(zip(schedule, ref_outcomes, outcomes)):
        assert a == b, f"op {i} {op[0]!r}: reference {a!r} != fastpath {b!r}"
    assert net.metrics.fingerprint() == ref.metrics.fingerprint()
    assert net.metrics.to_dict() == ref.metrics.to_dict()
    assert (
        {repr(v): hw for v, hw in net.memory_high_water().items()}
        == ref_waters
    )
    assert meter_state(net) == ref_meters


@pytest.mark.parametrize(
    "topo,seed",
    [
        pytest.param(TOPO_NAMES[s % len(TOPO_NAMES)], s, id=f"strict-s{s}")
        for s in FUZZ_SEEDS
    ],
)
def test_fuzz_strict_parity(topo, seed):
    """Strict mode: identical violations (op index, round, edge, text)."""
    _run_fuzz(topo, seed, strict=True)


@pytest.mark.parametrize(
    "topo,seed",
    [
        pytest.param(TOPO_NAMES[(s + 3) % len(TOPO_NAMES)], s, id=f"lax-s{s}")
        for s in (range(2) if QUICK else range(12))
    ],
)
def test_fuzz_non_strict_parity(topo, seed):
    """Non-strict mode: overloads pass through; traffic still matches."""
    _run_fuzz(topo, seed, strict=False)


def test_fuzz_schedules_do_violate():
    """Meta-check: the strict matrix actually exercises both violation
    kinds (capacity overload and non-edge send) — guards against a fuzzer
    regression that silently stops generating adversarial ops."""
    kinds = set()
    for s in FUZZ_SEEDS:
        graph = build_topology(TOPO_NAMES[s % len(TOPO_NAMES)], s)
        net = ReferenceNetwork(graph, strict=True)
        for outcome in apply_schedule(net, make_schedule(graph, s)):
            if outcome[0] == "violation":
                kinds.add(
                    "capacity" if "over capacity" in outcome[1] else "non-edge"
                )
    assert kinds == {"capacity", "non-edge"}


def test_fingerprint_helper_covers_timeline():
    """The replay fingerprint includes the per-round timeline (round,
    messages, words, phase) on both engines, idle rounds included."""
    graph = build_topology("gnp", 1)
    for engine in (ReferenceNetwork, Network):
        fp = run_fingerprint(engine, graph, lambda net, s: net.idle_rounds(3), 0)
        assert fp["rounds"] == [(r, 0, 0, None) for r in (1, 2, 3)]
