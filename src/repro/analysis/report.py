"""One-shot reproduction report.

``generate_report`` runs the table harnesses and a configurable subset of
the figure sweeps and renders everything into a single markdown document --
the quickest way to sanity-check an installation or a fork
(``python -m repro report --fast``).

``tests/test_experiments_golden.py`` is the assertion-checked reproduction
(every EXPERIMENTS.md row, exactly); this report is for humans skimming
results at smaller sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..telemetry import RunRecord, record_run
from .figures import (
    fig_stretch,
    fig_tree_memory,
    fig_tree_rounds,
    fig_tree_styles,
)
from .reporting import format_records
from .tables import Table1Result, Table2Result, run_table1, run_table2


@dataclass
class ReportSpec:
    """Workload sizes for one report run."""

    table2_n: int = 1000
    table1_n: int = 300
    table1_k: int = 3
    pairs: int = 120
    tree_sizes: tuple = (250, 500, 1000)
    stretch_n: int = 250
    seed: int = 0

    @classmethod
    def fast(cls) -> "ReportSpec":
        """A sub-minute configuration for smoke checks."""
        return cls(
            table2_n=300,
            table1_n=120,
            table1_k=2,
            pairs=50,
            tree_sizes=(150, 300),
            stretch_n=120,
        )


#: The report's four sweeps: JSON key -> markdown section title.
_FIGURE_TITLES = {
    "tree_rounds": "F1 — tree-routing rounds vs n",
    "tree_memory": "F2 — construction memory vs n",
    "stretch": "F4 — stretch vs k",
    "tree_styles": "F9 — tree-shape insensitivity",
}


def _measure(spec: ReportSpec) -> Tuple[
    Table2Result, RunRecord, Table1Result, RunRecord,
    Dict[str, List[Dict[str, object]]],
]:
    """Run both tables (recorded) and the four sweeps, for either rendering."""
    t2, t2_record = record_run(run_table2, spec.table2_n, seed=spec.seed)
    t1, t1_record = record_run(
        run_table1, spec.table1_n, spec.table1_k, seed=spec.seed,
        pairs=spec.pairs,
    )
    figures = {
        "tree_rounds": fig_tree_rounds(sizes=spec.tree_sizes, seed=spec.seed),
        "tree_memory": fig_tree_memory(sizes=spec.tree_sizes, seed=spec.seed),
        "stretch": fig_stretch(
            n=spec.stretch_n, ks=(2, 3), seed=spec.seed, pairs=spec.pairs
        ),
        "tree_styles": fig_tree_styles(n=max(spec.tree_sizes), seed=spec.seed),
    }
    return t2, t2_record, t1, t1_record, figures


def generate_report(spec: Optional[ReportSpec] = None) -> str:
    """Run the harnesses and render a markdown report."""
    spec = spec or ReportSpec()
    started = time.time()
    t2, _, t1, _, figures = _measure(spec)
    sections: List[str] = [
        "# Reproduction report",
        "",
        "Paper: *Near-Optimal Distributed Routing with Low Memory* "
        "(Elkin & Neiman, PODC 2018).",
        f"Workload seed: {spec.seed}.",
        "",
    ]

    sections += ["## Table 2 — exact tree routing", "```", t2.render(), "```", ""]
    ours, base = t2.row("this-paper"), t2.row("EN16b-baseline")
    sections.append(
        f"Memory: **{ours['memory_words']} words** (this paper, O(log n)) vs "
        f"**{base['memory_words']}** (EN16b-style, Θ(√n)); tables "
        f"{ours['table_words']} vs {base['table_words']} words."
    )
    sections.append("")

    sections += ["## Table 1 — compact routing", "```", t1.render(), "```", ""]
    mine = t1.row("this-paper")
    sections.append(
        f"Worst sampled stretch {mine['stretch_max']:.3f} against the "
        f"4k−3 = {4 * spec.table1_k - 3} bound."
    )
    sections.append("")

    for key, records in figures.items():
        sections += [f"## {_FIGURE_TITLES[key]}", "```",
                     format_records(records), "```", ""]

    sections.append(
        f"_Generated in {time.time() - started:.1f}s; the assertion-checked "
        "version of every EXPERIMENTS.md number is "
        "`pytest tests/test_experiments_golden.py`._"
    )
    return "\n".join(sections)


def generate_report_json(spec: Optional[ReportSpec] = None) -> Dict[str, object]:
    """Machine-readable rendering of the same measurement.

    Returns a single JSON-serializable dict: the table runs as full
    :class:`~repro.telemetry.RunRecord` manifests (workload, spans,
    counters, paper-bound verdicts), the figure sweeps as raw records,
    and ``passed`` aggregating every verdict so CI can gate on one field.
    """
    spec = spec or ReportSpec()
    started = time.time()
    _, t2_record, _, t1_record, figures = _measure(spec)
    return {
        "kind": "report",
        "seed": spec.seed,
        "table2": t2_record.to_dict(),
        "table1": t1_record.to_dict(),
        "figures": figures,
        "passed": t2_record.passed and t1_record.passed,
        "wall_s": time.time() - started,
    }
