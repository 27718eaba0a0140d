"""The Thorup-Zwick sampling hierarchy ``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_k = ∅``.

Appendix B: "Sample a collection of sets ... where for each 0 < i < k, each
vertex in A_{i-1} is chosen independently to be in A_i with probability
n^{-1/k}."  The hierarchy drives everything downstream: pivots, clusters,
the virtual graph (V' = A_{k/2}), and ultimately the table/label sizes.

We additionally guarantee ``A_{k-1} != ∅`` (resampling deterministically
from the seed until it holds, and forcing one vertex in the measure-zero
fallback): the top level must be non-empty or top-level clusters -- which
span V and make routing always succeed -- would not exist.  The paper
assumes this implicitly (it holds whp).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..errors import InputError

NodeId = Hashable


@dataclass
class Hierarchy:
    """Sampled level sets and per-vertex levels.

    ``levels[i]`` is ``A_i`` (``levels[0]`` = all vertices); ``level_of[v]``
    is the largest ``i`` with ``v ∈ A_i``, i.e. ``v ∈ A_i \\ A_{i+1}``
    exactly when ``level_of[v] == i``.  ``A_k`` is empty by definition and
    not stored.
    """

    k: int
    levels: List[Set[NodeId]]
    level_of: Dict[NodeId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.level_of:
            for v in self.levels[0]:
                self.level_of[v] = max(
                    i for i, level in enumerate(self.levels) if v in level
                )

    def set_at(self, i: int) -> Set[NodeId]:
        """``A_i``; ``A_k`` (and beyond) is the empty set."""
        if i < 0:
            raise InputError("level must be non-negative")
        return self.levels[i] if i < len(self.levels) else set()

    def vertices_at_level(self, i: int) -> List[NodeId]:
        """``A_i \\ A_{i+1}``, deterministically ordered."""
        return sorted(
            (v for v, lvl in self.level_of.items() if lvl == i), key=repr
        )

    def sizes(self) -> List[int]:
        return [len(level) for level in self.levels]


def sample_hierarchy(
    nodes: Sequence[NodeId],
    k: int,
    *,
    seed: int = 0,
    probability: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> Hierarchy:
    """Sample the hierarchy with per-level probability ``n^{-1/k}``.

    Deterministic for a fixed ``(nodes, k, seed)``.  ``probability``
    overrides the default sampling rate (used by tests to force extreme
    hierarchies).  Pass ``rng`` to draw every coin from a caller-owned
    :class:`random.Random` stream instead of the seed-derived ones
    (``seed`` is then ignored; resampling attempts and the forced
    fallback continue the same stream).
    """
    nodes = sorted(set(nodes), key=repr)
    n = len(nodes)
    if k < 1:
        raise InputError("k must be >= 1")
    if n == 0:
        raise InputError("cannot sample a hierarchy over no vertices")
    p = probability if probability is not None else n ** (-1.0 / k)
    if not (0.0 < p <= 1.0):
        raise InputError(f"sampling probability {p} out of range")
    for attempt in range(64):
        coins = (rng if rng is not None
                 else random.Random(f"{seed}/{k}/{attempt}"))
        levels: List[Set[NodeId]] = [set(nodes)]
        for _ in range(1, k):
            prev = levels[-1]
            levels.append(
                {v for v in sorted(prev, key=repr) if coins.random() < p}
            )
        if k == 1 or levels[k - 1]:
            return Hierarchy(k=k, levels=levels)
    # Measure-zero fallback: force a deterministic chain so A_{k-1} != ∅.
    coins = rng if rng is not None else random.Random(f"{seed}/{k}/force")
    forced = coins.choice(nodes)
    levels = [set(nodes)]
    for _ in range(1, k):
        prev = levels[-1]
        sampled = {v for v in sorted(prev, key=repr) if coins.random() < p}
        sampled.add(forced)
        levels.append(sampled)
    return Hierarchy(k=k, levels=levels)


def virtual_level(k: int) -> int:
    """The level whose set plays V' = A_{k/2} (Appendix B; ``ceil`` for odd
    k, which only shrinks V' and thus helps memory)."""
    return max(1, math.ceil(k / 2))
