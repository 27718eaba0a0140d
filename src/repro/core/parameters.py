"""Parameter presets for Theorem 3's regimes.

Theorem 3 offers a family of tradeoffs driven by the hopset parameter
(κ = 1/ρ in our construction, DESIGN.md substitution 1):

* **balanced** -- the headline: memory Õ(n^{1/k}) with construction time
  ``(n^{1/2+1/k} + D) · (log n)^{O(max{k, log log n})}``.  We pick κ so the
  hopset's per-vertex storage Õ(κ m^{1/κ}) sits near the table size
  n^{1/k}: κ ≈ max(2, ceil(log m / (log n / k))).
* **subpolynomial** -- the second assertion (k ≥ √(log n / log log n)):
  ρ = √(log log n / log n), memory 2^{Õ(√log n)}; we set
  κ = ceil(√(log n / log log n)).
* **polylog-memory** -- the penultimate-line regime of Table 1
  (k = ε·log n / log log n gives polylog memory): maximal κ, i.e.
  κ = ceil(log2 m).

Every preset also suggests β (the Bellman-Ford hop budget) and the
approximation slack ε ≤ min(1/5, 1/k²)-ish (the paper wants ε ≤ 1/(48k⁴)
for the sharpest stretch constant; at reproduction scales that underflows
float noise, so we floor it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InputError
from .build import default_beta


@dataclass(frozen=True)
class SchemePreset:
    """A concrete parameter choice for ``build_distributed_scheme``."""

    name: str
    kappa: int
    epsilon: float
    beta_hint: int

    def as_kwargs(self) -> dict:
        return {"kappa": self.kappa, "epsilon": self.epsilon, "beta": self.beta_hint}


def _epsilon_for(k: int) -> float:
    """ε ≤ 1/5 always; shrink with k but keep it numerically meaningful."""
    return max(0.01, min(0.1, 1.0 / (k * k)))


def expected_virtual_size(n: int, k: int) -> int:
    """E[|A_{⌈k/2⌉}|] = n^{1 - ⌈k/2⌉/k}."""
    boundary = max(1, math.ceil(k / 2))
    return max(1, round(n ** (1.0 - boundary / k)))


def preset(n: int, k: int, regime: str = "balanced") -> SchemePreset:
    """A parameter preset for an n-vertex build with stretch parameter k."""
    if n < 4 or k < 2:
        raise InputError("presets need n >= 4 and k >= 2")
    m = expected_virtual_size(n, k)
    log_n = math.log2(n)
    if regime == "balanced":
        target_degree = max(2.0, n ** (1.0 / k))
        kappa = max(2, math.ceil(math.log2(m + 2) / math.log2(target_degree)))
    elif regime == "subpolynomial":
        loglog = math.log2(max(2.0, log_n))
        kappa = max(2, math.ceil(math.sqrt(log_n / loglog)))
    elif regime == "polylog-memory":
        kappa = max(2, math.ceil(math.log2(m + 2)))
    else:
        raise InputError(f"unknown regime {regime!r}")
    return SchemePreset(
        name=regime,
        kappa=kappa,
        epsilon=_epsilon_for(k),
        beta_hint=default_beta(m, kappa),
    )
