"""The paper-bound checker.

Evaluates the closed-form bounds of Theorems 2 and 3 (the rows of the
paper's Tables 1-2) against *measured* values and returns
:class:`BoundVerdict` records that :class:`~repro.telemetry.runrecord.RunRecord`
serializes next to the measurements.

Asymptotic bounds need concrete constants before they can gate a run; the
constants here are the ones the experiments have asserted since the
seed (e.g. tree memory ``<= 12 log2 n + 40``, Table-2's sub-√n relation)
plus Õ slack of one ``log²`` factor where the paper writes Õ.  They are
deliberately loose — a verdict failure means an order-of-growth regression
or an accounting bug, not noise.

Every checker takes plain numbers so the module stays import-light
(``analysis`` calls in; nothing here imports ``analysis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class BoundVerdict:
    """One bound evaluated against one measured column."""

    name: str  # e.g. "table2/this-paper/table_words"
    column: str  # the measured column the verdict gates
    formula: str  # human-readable closed form with constants substituted
    measured: float
    limit: float
    passed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "column": self.column,
            "formula": self.formula,
            "measured": self.measured,
            "limit": round(self.limit, 3),
            "passed": self.passed,
        }


def verdict_from_dict(d: Dict[str, Any]) -> BoundVerdict:
    return BoundVerdict(
        name=d["name"],
        column=d["column"],
        formula=d["formula"],
        measured=d["measured"],
        limit=d["limit"],
        passed=bool(d["passed"]),
    )


def failures(verdicts: List[BoundVerdict]) -> List[BoundVerdict]:
    return [v for v in verdicts if not v.passed]


def _check(name: str, column: str, formula: str,
           measured: float, limit: float) -> BoundVerdict:
    return BoundVerdict(
        name=name,
        column=column,
        formula=formula,
        measured=measured,
        limit=limit,
        passed=bool(measured <= limit),
    )


# -- Theorem 2: exact tree routing (Table 2) ---------------------------------

def check_tree_columns(
    n: int,
    *,
    rounds: Optional[float] = None,
    table_words: Optional[float] = None,
    label_words: Optional[float] = None,
    memory_words: Optional[float] = None,
    hop_diameter_bound: Optional[int] = None,
    prefix: str = "table2/this-paper",
) -> List[BoundVerdict]:
    """Theorem 2: Õ(√n + D) rounds, O(1) tables, O(log n) labels and memory.

    Pass only the columns that were measured; each yields one verdict.
    """
    log_n = math.log2(max(2, n))
    out: List[BoundVerdict] = []
    if rounds is not None:
        d = hop_diameter_bound or 0
        limit = 3.0 * (math.sqrt(n) * log_n**2 + d) + 50
        out.append(_check(
            f"{prefix}/rounds", "rounds",
            "Õ(√n + D): <= 3(√n·log²n + D) + 50", float(rounds), limit,
        ))
    if table_words is not None:
        out.append(_check(
            f"{prefix}/table_words", "table_words",
            "O(1): <= 6 words", float(table_words), 6.0,
        ))
    if label_words is not None:
        out.append(_check(
            f"{prefix}/label_words", "label_words",
            "O(log n): <= 2·log2 n + 4", float(label_words), 2 * log_n + 4,
        ))
    if memory_words is not None:
        out.append(_check(
            f"{prefix}/memory_words", "memory_words",
            "O(log n): <= 12·log2 n + 40", float(memory_words),
            12 * log_n + 40,
        ))
    return out


def check_table2_relations(
    ours: Dict[str, Any],
    baseline: Dict[str, Any],
    centralized: Dict[str, Any],
    *,
    prefix: str = "table2/relations",
) -> List[BoundVerdict]:
    """Cross-row claims of Table 2: artifact parity with [TZ01b] and the
    memory separation against the [EN16b]-style baseline."""
    out = [
        _check(
            f"{prefix}/table_parity", "table_words",
            "tables == TZ01b centralized (0 excess words)",
            float(ours["table_words"] - centralized["table_words"]), 0.0,
        ),
        _check(
            f"{prefix}/label_parity", "label_words",
            "labels == TZ01b centralized (0 excess words)",
            float(ours["label_words"] - centralized["label_words"]), 0.0,
        ),
    ]
    if isinstance(baseline.get("memory_words"), (int, float)):
        out.append(_check(
            f"{prefix}/memory_separation", "memory_words",
            "O(log n) memory strictly below the Õ(√n) baseline",
            float(ours["memory_words"]),
            float(baseline["memory_words"]) - 1,
        ))
    return out


# -- Theorem 3: compact routing for general graphs (Table 1) -----------------

def check_graph_columns(
    n: int,
    k: int,
    *,
    epsilon: float = 0.05,
    rounds: Optional[float] = None,
    table_words: Optional[float] = None,
    label_words: Optional[float] = None,
    stretch_max: Optional[float] = None,
    memory_words: Optional[float] = None,
    hop_diameter_bound: Optional[int] = None,
    prefix: str = "table1/this-paper",
) -> List[BoundVerdict]:
    """Theorem 3: rounds (n^{1/2+1/k}+D)·n^{o(1)}, tables Õ(n^{1/k}),
    labels O(k log n), stretch 4k-3+o(1), memory Õ(n^{1/k})."""
    log_n = math.log2(max(2, n))
    out: List[BoundVerdict] = []
    if rounds is not None:
        d = hop_diameter_bound or 0
        limit = 24.0 * (n ** (0.5 + 1.0 / k) + d) * log_n**2
        out.append(_check(
            f"{prefix}/rounds", "rounds",
            "(n^(1/2+1/k)+D)·γ: <= 24(n^(1/2+1/k)+D)·log²n",
            float(rounds), limit,
        ))
    if table_words is not None:
        out.append(_check(
            f"{prefix}/table_words", "table_words",
            "Õ(n^(1/k)): <= 8·n^(1/k)·log²n", float(table_words),
            8.0 * n ** (1.0 / k) * log_n**2,
        ))
    if label_words is not None:
        out.append(_check(
            f"{prefix}/label_words", "label_words",
            "O(k log n): <= k(2·log2 n + 4)", float(label_words),
            k * (2 * log_n + 4),
        ))
    if stretch_max is not None:
        slack = (1 + 6 * epsilon) ** 2
        out.append(_check(
            f"{prefix}/stretch_max", "stretch_max",
            f"4k-3+o(1): <= (4k-3)·(1+6ε)² = {(4 * k - 3) * slack:.3f}",
            float(stretch_max), (4 * k - 3) * slack + 1e-9,
        ))
    if memory_words is not None:
        out.append(_check(
            f"{prefix}/memory_words", "memory_words",
            "Õ(n^(1/k)): <= 12·n^(1/k)·log²n", float(memory_words),
            12.0 * n ** (1.0 / k) * log_n**2,
        ))
    return out


def check_table1_relations(
    ours: Dict[str, Any],
    *,
    n: int,
    prefix: str = "table1/relations",
) -> List[BoundVerdict]:
    """The headline separation: construction memory within a polylog factor
    of the table size, far below the Θ(√n · table) regime of prior work."""
    log_n = math.log2(max(2, n))
    table = max(1.0, float(ours["table_words"]))
    return [
        _check(
            f"{prefix}/memory_vs_table", "memory_words",
            "memory <= 8·log²n · table_words",
            float(ours["memory_words"]), 8.0 * log_n**2 * table,
        ),
        _check(
            f"{prefix}/memory_below_sqrt_n", "memory_words",
            "memory < √n · table_words",
            float(ours["memory_words"]), math.sqrt(n) * table - 1e-9,
        ),
    ]
