"""Seeded protocol fuzzer: random message schedules on both engines.

Unlike the replay tests (which drive real algorithm code), the fuzzer
generates adversarial *raw* schedules — including deliberate capacity
violations and non-edge sends — and asserts the engines fail identically:
same :class:`~repro.errors.CongestModelViolation` at the same operation, in
the same round, with the byte-identical message.  After a violation each
engine must also be left in the same state (the schedule keeps going), so
post-exception divergence cannot hide.  Besides outcomes and metrics, the
post-run check covers the whole per-vertex meter state (current,
high-water, both breakdowns), so neither the
bulk bookkeeping nor a lazily settled high-water can drift.  The meters
are read once, after the schedule: reading a high-water settles it, so a
mid-run read would hide exactly the laziness under test.  The network-wide
peak is the exception: ``Network.max_memory()`` settles nothing, so it is
recorded after every op and compared with the reference's eager maximum
at every step.

Schedules are generated once per seed and applied to each engine
independently; everything is derived from ``random.Random(seed)``, so a
failing case reproduces from its pytest id alone.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import pytest

from repro.congest import Network, ReferenceNetwork
from repro.errors import CongestModelViolation, InputError, MemoryAccountingError
from repro.wordsize import words_of

from .harness import QUICK, TOPOLOGIES, build_topology, meter_state, run_fingerprint

_KEYS = ["fz/a", "fz/b", "relay/fz", "plain"]

FUZZ_SEEDS = range(4) if QUICK else range(30)
TOPO_NAMES = sorted(TOPOLOGIES)


def make_schedule(graph: Any, seed: int, *, rounds: int = 12) -> List[Tuple]:
    """A deterministic random schedule of engine operations.

    Ops (every send is a ``send_each`` batch; the second field labels
    the op for the meta-check and is not sent):
      ("send_each", "fuzz", [(src, dst, payload)])
                                               -- one message; dst may be a
                                                  NON-neighbor
      ("send_each", "fan", [(src, dst, None), ...])
                                               -- a fan-out over some of
                                                  src's ports; may contain a
                                                  non-edge
      ("send_each", "each", [(src, dst, payload), ...])
                                               -- one round of distinct
                                                  messages; ~1 in 10 batches
                                                  carries, mid-batch, a
                                                  non-edge, a repeated arc, a
                                                  wide or an unsizable payload
      GHOST sends (label ``GHOST_LABEL``)      -- a batch of each of the
                                                  three shapes with a src or
                                                  dst that is not a vertex
      ("flood", payload)                       -- one batch: every vertex,
                                                  all its ports
      ("close", "tick" | "deliver")            -- end the round either way
      ("idle", k)                              -- ``k`` empty ``tick`` rounds
      ("charge", r, m, w)                      -- charged rounds
      ("mem", v, key, words)                   -- ``store_each(key, {v: words})``:
                                                  one vertex deviates
      ("free", prefix) / ("free_key", key)
      ("store_all", key, words)                -- uniform network-wide store
      ("add_each", key, [v, ...], words)       -- a few vertices grow, some
                                                  listed twice; ~1 in 8
                                                  carries a negative size
      ("store_each", key, {v: words})          -- one key at many vertices;
                                                  half carry a negative size
                                                  mid-batch

    The ghost sends exercise the fast path's per-source arc map on a
    source it has no map for, and a known source's map on a missing key.
    Capacity violations arise naturally: several sends may pick the same
    directed edge within one round, and a ``flood`` after any send on a
    strict network overloads the first already-loaded arc it reaches,
    mid-batch.  Wide
    payloads (> word limit) exercise the multi-slot charging path, which
    must never raise.
    """
    rng = random.Random(seed * 6151 + 17)
    each_rng = random.Random(seed * 7919 + 29)
    ghost_rng = random.Random(seed * 104729 + 43)
    nodes = sorted(graph.nodes, key=repr)
    neighbors = {v: sorted(graph.neighbors(v), key=repr) for v in nodes}
    schedule: List[Tuple] = []
    for _ in range(rounds):
        for _ in range(rng.randrange(0, 10)):
            # ``send_each`` ops come from their own stream, spliced in: the
            # other ops keep their shares and their draws.
            if each_rng.random() < 0.2:
                schedule.append(
                    ("send_each", "each", _send_each_batch(each_rng, nodes, neighbors))
                )
            # ... and so do the ghost sends.
            if ghost_rng.random() < 0.1:
                schedule.append(_ghost_send(ghost_rng, nodes, neighbors))
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
                schedule.append(("send_each", "fuzz", [(src, dst, payload)]))
            elif roll < 0.78:
                dsts = rng.sample(
                    neighbors[src], rng.randrange(1, len(neighbors[src]) + 1)
                )
                if rng.random() < 0.1:
                    dsts.insert(rng.randrange(len(dsts) + 1), rng.choice(nodes))
                schedule.append(("send_each", "fan", [(src, d, None) for d in dsts]))
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
            elif roll < 0.95:
                grown = [src] + rng.choices(nodes, k=rng.randrange(0, 4))
                schedule.append(
                    ("add_each", rng.choice(_KEYS), grown + grown[:rng.randrange(0, 3)],
                     -1 if rng.random() < 0.125 else rng.randrange(0, 4))
                )
            elif roll < 0.965:
                batch = {v: rng.randrange(0, 5)
                         for v in rng.sample(nodes, rng.randrange(1, len(nodes) + 1))}
                if len(batch) > 2 and rng.random() < 0.5:
                    batch[list(batch)[len(batch) // 2]] = -1
                schedule.append(("store_each", rng.choice(_KEYS), batch))
            elif roll < 0.975:
                schedule.append(
                    ("free", rng.choice(["fz/", "fz/a", "relay/", "plain"]))
                )
            elif roll < 0.99:
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


class _Unsizable:
    """A payload ``words_of`` cannot size (it raises ``InputError``)."""


def _send_each_batch(rng: random.Random, nodes: List[Any],
                     neighbors: Dict[Any, List[Any]]) -> List[Tuple]:
    """A few distinct legal arcs with small payloads; 1 in 10 batches gets
    one defect spliced in mid-batch."""
    arcs = set()
    for _ in range(rng.randrange(1, 6)):
        src = rng.choice(nodes)
        arcs.add((src, rng.choice(neighbors[src])))
    batch = [(src, dst, rng.choice([None, rng.randrange(100), (src, dst)]))
             for src, dst in sorted(arcs, key=repr)]
    if rng.random() < 0.1:
        src, dst, _ = batch[0]
        defect = rng.choice([
            (rng.choice(nodes), rng.choice(nodes), 1),  # likely a non-edge
            (src, dst, 2),                              # the arc again
            (src, dst, list(range(rng.randrange(5, 12)))),  # wide: charged
            (src, dst, _Unsizable()),
        ])
        batch.insert(rng.randrange(1, len(batch) + 1), defect)
    return batch


#: The vertex no topology has, and the label of every op that sends to or
#: from it.
GHOST = "ghost"
GHOST_LABEL = "to-ghost"


def _ghost_send(rng: random.Random, nodes: List[Any],
                neighbors: Dict[Any, List[Any]]) -> Tuple:
    """A batch of one of the three send shapes (one message, a fan-out, a
    round of payloads) with ``GHOST`` as its source or as one destination
    (mid-batch for the two multi-message shapes)."""
    src = rng.choice(nodes)
    dst = rng.choice(neighbors[src])
    if rng.random() < 0.5:
        src, dsts = GHOST, [dst, src]
    else:
        dsts = list(neighbors[src])
        dsts.insert(rng.randrange(len(dsts) + 1), GHOST)
        dst = GHOST
    shape = rng.choice(["one", "fan", "each"])
    if shape == "fan":
        batch = [(src, d, None) for d in dsts]
    elif shape == "each":
        batch = [(src, d, 1) for d in dsts]
    else:
        batch = [(src, dst, rng.choice([None, 5]))]
    return ("send_each", GHOST_LABEL, batch)


def apply_schedule(net: Any, schedule: List[Tuple]) -> List[Tuple]:
    """Run a schedule, recording each op's observable outcome followed by
    the network's ``max_memory()`` after it.  A delivered message is
    recorded as its source, payload and ``words_of`` width."""
    outcomes: List[Tuple] = []
    for op in schedule:
        tag = op[0]
        try:
            if tag == "send_each":
                net.send_each(op[2])
                outcomes.append(("ok",))
            elif tag == "flood":
                # A violation aborts the rest of the flood.
                net.send_each([(v, w, op[1]) for v in net.nodes()
                               for w in net.ports(v)])
                outcomes.append(("ok",))
            elif tag == "close":
                if op[1] == "tick":
                    inboxes = net.tick()
                    outcomes.append((
                        "round",
                        sorted(
                            (repr(v), [(repr(src), payload, words_of(payload))
                                       for src, _, payload in box])
                            for v, box in inboxes.items()
                        ),
                    ))
                else:
                    delivered = net.deliver_batch()
                    outcomes.append((
                        "round",
                        [(repr(src), repr(dst), payload, words_of(payload))
                         for src, dst, payload in delivered],
                    ))
            elif tag == "idle":
                for _ in range(op[1]):
                    net.tick()
                outcomes.append(("ok",))
            elif tag == "charge":
                net.charge_rounds(op[1], messages=op[2], words=op[3])
                outcomes.append(("ok",))
            elif tag == "mem":
                net.store_each(op[2], {op[1]: op[3]})
                outcomes.append(("ok",))
            elif tag == "store_all":
                net.store_all(op[1], op[2])
                outcomes.append(("ok",))
            elif tag == "add_each":
                net.add_each(op[1], op[2], op[3])
                outcomes.append(("ok",))
            elif tag == "free":
                net.free_all(op[1])
                outcomes.append(("ok",))
            elif tag == "free_key":
                net.free_key(op[1])
                outcomes.append(("ok",))
            elif tag == "store_each":
                net.store_each(op[1], op[2])
                outcomes.append(("ok",))
        except CongestModelViolation as exc:
            outcomes.append(("violation", str(exc)))
        except MemoryAccountingError as exc:
            outcomes.append(("negative-store", str(exc)))
        except InputError as exc:
            outcomes.append(("unsizable", str(exc)))
        outcomes[-1] += (net.max_memory(),)
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
    kinds (capacity overload and non-edge send), an unsizable payload, a
    ``store_each`` that fails mid-batch, a ``send_each`` that fails with
    messages of its batch already queued, a ghost source and a ghost
    destination, and ``add_each`` calls that grow a vertex listed twice
    and that carry a negative size — guards against a fuzzer regression
    that silently stops generating adversarial ops."""
    kinds = set()
    for s in FUZZ_SEEDS:
        graph = build_topology(TOPO_NAMES[s % len(TOPO_NAMES)], s)
        net = ReferenceNetwork(graph, strict=True)
        for op in make_schedule(graph, s):
            queued = len(net._outbox)
            (outcome,) = apply_schedule(net, [op])
            if outcome[0] == "violation":
                kinds.add(
                    "capacity" if "over capacity" in outcome[1] else "non-edge"
                )
            elif outcome[0] in ("negative-store", "unsizable"):
                kinds.add(outcome[0])
            if op[0] == "send_each" and outcome[0] != "ok" \
                    and len(net._outbox) > queued:
                kinds.add("mid-batch")
            if op[0] == "add_each":
                if outcome[0] != "ok":
                    kinds.add("negative add")
                elif len(set(op[2])) < len(op[2]):
                    kinds.add("repeated add")
            if op[1] == GHOST_LABEL and outcome[0] == "violation":
                if outcome[1].startswith(f"{GHOST!r} ->"):
                    kinds.add("ghost source")
                if outcome[1].endswith(f"-> {GHOST!r} is not an edge"):
                    kinds.add("ghost destination")
    assert kinds == {"capacity", "non-edge", "unsizable", "negative-store",
                     "mid-batch", "ghost source", "ghost destination",
                     "negative add", "repeated add"}


def test_fingerprint_helper_covers_timeline():
    """The replay fingerprint includes the per-round timeline (round,
    messages, words, phase) on both engines, idle rounds included."""

    def idle(net, seed):
        for _ in range(3):
            net.tick()

    graph = build_topology("gnp", 1)
    for engine in (ReferenceNetwork, Network):
        fp = run_fingerprint(engine, graph, idle, 0)
        assert fp["rounds"] == [(r, 0, 0, None) for r in (1, 2, 3)]
